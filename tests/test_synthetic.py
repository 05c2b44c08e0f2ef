import subprocess
import sys

import pytest

from voxcodec import cli, synthetic
from voxcodec.errors import ContractViolation

# the refusals below take under a second; a child still running after this
# long is a rejection loop that does not end
TIMEOUT_S = 60


def test_unfillable_blob_refused_in_bounded_time():
    # 200 of the 8^3 cells fit the cube, but the clusters' spread covers far fewer
    script = (
        "from voxcodec import synthetic\n"
        "from voxcodec.errors import ContractViolation\n"
        "try:\n"
        "    synthetic.make_blob(200, 3, 0)\n"
        "except ContractViolation as exc:\n"
        "    print(exc)\n"
        "    raise SystemExit(7)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    assert proc.returncode == 7, proc.stderr
    assert "draws" in proc.stdout


def test_cli_unfillable_synthetic_exit_3(tmp_path):
    weights = tmp_path / "w.dpcw"
    assert cli.main(["make-weights", "--seed", "0", "--output", str(weights)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "voxcodec.cli", "encode", "--weights", str(weights),
         "--synthetic", "rigid:200,1,0", "--precision", "3", "--output", str(tmp_path / "enc")],
        capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == cli.EXIT_BAD_INPUT
    assert proc.stderr.startswith("error:") and "draws" in proc.stderr
    assert "Traceback" not in proc.stderr



@pytest.mark.parametrize("n", [0, -3, 1.5, True, "10"])
def test_point_count_not_an_integer_above_0_refused(n):
    with pytest.raises(ContractViolation, match="n_points"):
        synthetic.make_blob(n, 6, 0)


@pytest.mark.parametrize("bits,margin", [(-1, 0), (21, 0), (21, 5), (300, 1)])
def test_cube_past_the_key_range_refused(bits, margin):
    with pytest.raises(ContractViolation, match="key range"):
        synthetic.make_blob(10, bits, 0, margin=margin)


def test_largest_cube_in_the_key_range_accepted():
    blob = synthetic.make_blob(10, 20, 0)
    assert blob.shape == (10, 3) and blob.max() < 1 << 20
