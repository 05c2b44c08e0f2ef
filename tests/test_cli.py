import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from voxcodec import cli
from voxcodec.ply import load_ply, write_ply


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "w.dpcw"
    assert cli.main(["make-weights", "--seed", "0", "--output", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def encoded(tmp_path_factory, weights_file):
    out = tmp_path_factory.mktemp("enc")
    rc = cli.main([
        "encode", "--weights", str(weights_file), "--synthetic", "rigid:600,2,2",
        "--precision", "7", "--output", str(out)])
    assert rc == 0
    return out


class TestEncode:
    def test_manifest_and_frame_files(self, encoded):
        manifest = json.loads((encoded / "manifest.json").read_text())
        assert [f["type"] for f in manifest["frames"]] == ["I", "P"]
        for f in manifest["frames"]:
            assert (encoded / f["file"]).is_file()

    def test_deterministic_bytes(self, tmp_path, weights_file, encoded):
        out2 = tmp_path / "enc2"
        rc = cli.main([
            "encode", "--weights", str(weights_file), "--synthetic", "rigid:600,2,2",
            "--precision", "7", "--output", str(out2)])
        assert rc == 0
        for f in sorted(encoded.glob("*.ddpc")):
            assert (out2 / f.name).read_bytes() == f.read_bytes()
        assert (out2 / "manifest.json").read_text() == (encoded / "manifest.json").read_text()

    def test_manifest_bpp_matches_recomputation(self, encoded):
        from voxcodec.metrics import bpp

        manifest = json.loads((encoded / "manifest.json").read_text())
        for entry in manifest["frames"]:
            size = entry["payload_bytes"]
            assert entry["bpp"] == pytest.approx(bpp(8 * size, entry["n_points"]))

    def test_missing_weights_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DDPC_WEIGHTS", raising=False)
        rc = cli.main(["encode", "--synthetic", "rigid:100,1,0",
                       "--output", str(tmp_path / "x")])
        assert rc == cli.EXIT_NO_WEIGHTS

    def test_malformed_input_exit_3(self, tmp_path, weights_file):
        bad = tmp_path / "bad.ply"
        bad.write_text("not a ply\n")
        rc = cli.main(["encode", "--weights", str(weights_file),
                       "--output", str(tmp_path / "y"), str(bad)])
        assert rc == cli.EXIT_BAD_INPUT

    def test_weight_file_shorter_than_header_exit_2(self, tmp_path):
        short = tmp_path / "short.dpcw"
        short.write_bytes(b"DPCW\x01\x00")
        rc = cli.main(["encode", "--weights", str(short), "--synthetic", "rigid:100,1,0",
                       "--output", str(tmp_path / "x")])
        assert rc == cli.EXIT_NO_WEIGHTS

    def test_nan_entropy_offset_exit_2(self, tmp_path, capsys):
        from voxcodec.weights import WeightStore, make_weights

        store = make_weights(0)
        tensors = {n: store[n] for n in store.names()}
        offset = tensors["entropy.motion.offset"].copy()
        offset[0] = np.nan
        tensors["entropy.motion.offset"] = offset
        path = tmp_path / "nan.dpcw"
        WeightStore(tensors).save(path)
        rc = cli.main(["encode", "--weights", str(path), "--synthetic", "rigid:100,1,0",
                       "--output", str(tmp_path / "x")])
        assert rc == cli.EXIT_NO_WEIGHTS
        assert "unusable weight file" in capsys.readouterr().err

    def test_env_var_weights(self, tmp_path, weights_file, monkeypatch):
        monkeypatch.setenv("DDPC_WEIGHTS", str(weights_file))
        rc = cli.main(["encode", "--synthetic", "rigid:100,1,0", "--precision", "6",
                       "--output", str(tmp_path / "envout")])
        assert rc == 0


class TestDecode:
    def test_decode_counts(self, tmp_path, weights_file, encoded):
        out = tmp_path / "dec"
        rc = cli.main(["decode", "--weights", str(weights_file),
                       "--manifest", str(encoded / "manifest.json"),
                       "--output", str(out)])
        assert rc == 0
        manifest = json.loads((encoded / "manifest.json").read_text())
        plys = sorted(out.glob("*.ply"))
        assert len(plys) == 2
        for entry, ply in zip(manifest["frames"], plys):
            assert load_ply(ply, 7).n == entry["n_points"]

    def test_redecode_bit_identical(self, tmp_path, weights_file, encoded):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = cli.main(["decode", "--weights", str(weights_file),
                           "--manifest", str(encoded / "manifest.json"),
                           "--output", str(out)])
            assert rc == 0
        for f in sorted(a.glob("*.ply")):
            assert (b / f.name).read_bytes() == f.read_bytes()

    def test_p_frame_without_reference_exit_4(self, tmp_path, weights_file, encoded):
        manifest = json.loads((encoded / "manifest.json").read_text())
        manifest["frames"] = manifest["frames"][1:]  # drop the I frame
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "manifest.json").write_text(json.dumps(manifest))
        for entry in manifest["frames"]:
            (broken / entry["file"]).write_bytes((encoded / entry["file"]).read_bytes())
        rc = cli.main(["decode", "--weights", str(weights_file),
                       "--manifest", str(broken / "manifest.json"),
                       "--output", str(tmp_path / "out")])
        assert rc == cli.EXIT_NO_REFERENCE


    def test_exit_code_chosen_by_error_type(self, tmp_path, weights_file, encoded,
                                            monkeypatch):
        from voxcodec.errors import DecodeError, MissingReference

        def run(exc):
            def fail(*args, **kwargs):
                raise exc
            monkeypatch.setattr(cli.codec, "decode", fail)
            return cli.main(["decode", "--weights", str(weights_file),
                             "--manifest", str(encoded / "manifest.json"),
                             "--output", str(tmp_path / "out")])

        assert run(MissingReference("no reference")) == cli.EXIT_NO_REFERENCE
        assert run(DecodeError("previous decoded latent")) == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize("manifest", [
        {}, {"frames": 3}, [1, 2], {"frames": [{"type": "I"}]}, "not json",
        {"frames": [{"file": "missing.ddpc"}]},
        {"frames": [{"file": "frame0000.ddpc"}], "alpha": "x"},
    ])
    def test_malformed_manifest_exit_3(self, tmp_path, weights_file, encoded, manifest):
        path = encoded / "broken.json"
        path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
        rc = cli.main(["decode", "--weights", str(weights_file), "--manifest", str(path),
                       "--output", str(tmp_path / "out")])
        assert rc == cli.EXIT_BAD_INPUT

    def test_alpha_and_latent_carry_come_from_manifest(self, tmp_path, weights_file,
                                                       store, models):
        from voxcodec import codec, synthetic
        from voxcodec.ply import write_frame

        enc, dec = tmp_path / "enc", tmp_path / "dec"
        assert cli.main(["encode", "--weights", str(weights_file), "--synthetic",
                         "rigid:300,2,1", "--precision", "6", "--alpha", "5",
                         "--latent-carry", "--output", str(enc)]) == 0
        assert cli.main(["decode", "--weights", str(weights_file),
                         "--manifest", str(enc / "manifest.json"),
                         "--output", str(dec)]) == 0
        prev = None
        for name in ("frame0000", "frame0001"):
            bs = codec.parse((enc / f"{name}.ddpc").read_bytes())
            res = codec.decode(bs, prev, models, store, alpha=5.0, latent_carry=True)
            prev = res.reference_latent
            write_frame(tmp_path / "api.ply", res.decoded)
            assert (dec / f"{name}.ply").read_bytes() == (tmp_path / "api.ply").read_bytes()

    @pytest.mark.parametrize("option", [["--alpha", "3"], ["--gop", "1"], ["--latent-carry"],
                                        ["--lambda", "3"], ["--workers", "1"],
                                        ["--transmit-c3"]])
    def test_options_decode_never_read_are_rejected(self, tmp_path, weights_file,
                                                    encoded, option):
        rc = cli.main(["decode", "--weights", str(weights_file),
                       "--manifest", str(encoded / "manifest.json"),
                       "--output", str(tmp_path / "out")] + option)
        assert rc == 2


class TestEval:
    def test_eval_rows_and_csv(self, tmp_path, weights_file, encoded):
        dec = tmp_path / "dec"
        assert cli.main(["decode", "--weights", str(weights_file),
                         "--manifest", str(encoded / "manifest.json"),
                         "--output", str(dec)]) == 0
        csv = tmp_path / "rd.csv"
        rc = cli.main(["eval", "--synthetic", "rigid:600,2,2", "--precision", "7",
                       "--decoded", str(dec), "--bitstream-dir", str(encoded),
                       "--csv", str(csv)])
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 3
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == 6
            float(fields[3]), float(fields[4]), float(fields[5])  # parse back

    def test_identical_clouds_report_inf(self, tmp_path, weights_file):
        src = tmp_path / "same"
        src.mkdir()
        coords = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9], [2, 4, 6]])
        write_ply(src / "f0.ply", coords)
        dec = tmp_path / "samedec"
        dec.mkdir()
        write_ply(dec / "f0.ply", coords)
        man = tmp_path / "bits"
        man.mkdir()
        (man / "manifest.json").write_text(json.dumps(
            {"frames": [{"file": "f0.ddpc", "bpp": 1.0, "n_points": 4,
                         "payload_bytes": 1}]}))
        csv = tmp_path / "inf.csv"
        rc = cli.main(["eval", "--precision", "7", "--decoded", str(dec),
                       "--bitstream-dir", str(man), "--csv", str(csv),
                       str(src / "f0.ply")])
        assert rc == 0
        assert ",inf,inf" in csv.read_text()

    def test_lambda_sweep_appends_five_rows(self, tmp_path, weights_file, encoded):
        dec = tmp_path / "dec"
        assert cli.main(["decode", "--weights", str(weights_file),
                         "--manifest", str(encoded / "manifest.json"),
                         "--output", str(dec)]) == 0
        csv = tmp_path / "sweep.csv"
        for lam in (3, 4, 5, 7, 10):
            rc = cli.main(["eval", "--synthetic", "rigid:600,2,2", "--precision", "7",
                           "--lambda", str(lam), "--decoded", str(dec),
                           "--bitstream-dir", str(encoded), "--csv", str(csv)])
            assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * 2  # header + five tags x two frames
        assert sorted({row.split(",")[2] for row in lines[1:]}) == ["10", "3", "4", "5", "7"]

    def test_count_mismatch_exit_5(self, tmp_path, weights_file, encoded):
        dec = tmp_path / "short"
        dec.mkdir()
        write_ply(dec / "f0.ply", np.array([[0, 0, 0]]))
        rc = cli.main(["eval", "--synthetic", "rigid:600,2,2", "--precision", "7",
                       "--decoded", str(dec), "--bitstream-dir", str(encoded),
                       "--csv", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_COUNT_MISMATCH


    @pytest.mark.parametrize("manifest", [
        {}, {"frames": [{"file": "f0.ddpc"}, {"file": "f1.ddpc"}]},
        {"frames": [{"bpp": 1.0}]}, {"frames": [{"bpp": "x"}, {"bpp": 1.0}]},
    ])
    def test_malformed_manifest_exit_3(self, tmp_path, manifest):
        src = tmp_path / "src"
        src.mkdir()
        coords = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9], [2, 4, 6]])
        write_ply(src / "f0.ply", coords)
        write_ply(src / "f1.ply", coords)
        bits = tmp_path / "bits"
        bits.mkdir()
        (bits / "manifest.json").write_text(json.dumps(manifest))
        rc = cli.main(["eval", "--precision", "7", "--decoded", str(src),
                       "--bitstream-dir", str(bits), "--csv", str(tmp_path / "x.csv"),
                       str(src / "f0.ply"), str(src / "f1.ply")])
        assert rc == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize("option", [["--alpha", "3"], ["--gop", "1"], ["--latent-carry"],
                                        ["--workers", "1"], ["--transmit-c3"]])
    def test_options_eval_never_reads_are_rejected(self, tmp_path, option):
        rc = cli.main(["eval", "--synthetic", "rigid:100,1,0", "--decoded", str(tmp_path),
                       "--csv", str(tmp_path / "x.csv")] + option)
        assert rc == 2


class TestRdcsv:
    def write_curve(self, path, scale):
        rows = [cli.CSV_HEADER]
        for i, (r, q1, q2) in enumerate([(0.5, 60, 61), (1.0, 64, 65),
                                         (2.0, 67, 68), (4.0, 69, 70)]):
            rows.append(f"seq,{i},3,{r * scale},{q1},{q2}")
        Path(path).write_text("\n".join(rows) + "\n")

    def test_identical_curves(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_curve(a, 1.0)
        self.write_curve(b, 1.0)
        assert cli.main(["rdcsv", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "bd_rate_d1_percent=0.0000" in out

    def test_half_rate_minus_fifty(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_curve(a, 1.0)
        self.write_curve(b, 0.5)
        assert cli.main(["rdcsv", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "bd_rate_d1_percent=-50.00" in out

    def test_svg_well_formed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_curve(a, 1.0)
        self.write_curve(b, 0.5)
        svg = tmp_path / "plot.svg"
        assert cli.main(["rdcsv", str(a), str(b), "--svg", str(svg)]) == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

    def test_few_points_exit_6(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_curve(a, 1.0)
        b.write_text(cli.CSV_HEADER + "\nseq,0,3,1.0,60,61\n")
        assert cli.main(["rdcsv", str(a), str(b)]) == cli.EXIT_FEW_POINTS

    @pytest.mark.parametrize("row", ["seq,4,3,nan,70,71", "seq,4,3,8.0,inf,inf",
                                     "seq,4,3,4.0,69,70"])
    def test_bad_curve_exit_3(self, tmp_path, row):
        # a NaN rate, the inf PSNR eval writes for identical clouds, a repeated point
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_curve(a, 1.0)
        self.write_curve(b, 1.0)
        b.write_text(b.read_text() + row + "\n")
        assert cli.main(["rdcsv", str(a), str(b)]) == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize("row", ["seq,0,3,1.0,60", "seq,0,3,abc,60,61",
                                     "seq,0,3,1.0,60,61,9"])
    def test_malformed_row_exit_3(self, tmp_path, row):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_curve(a, 1.0)
        self.write_curve(b, 1.0)
        b.write_text(b.read_text() + row + "\n")
        assert cli.main(["rdcsv", str(a), str(b)]) == cli.EXIT_BAD_INPUT


class TestConfig:
    def test_config_file_applies(self, tmp_path, weights_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 4.0\nlambda = 5\ngop = 1\n")
        out = tmp_path / "enc"
        rc = cli.main(["encode", "--weights", str(weights_file),
                       "--synthetic", "rigid:200,2,1", "--precision", "6",
                       "--config", str(cfg), "--output", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["lambda"] == 5
        assert manifest["alpha"] == 4.0
        # gop=1 forces every frame intra
        assert [f["type"] for f in manifest["frames"]] == ["I", "I"]

    def test_unknown_key_rejected(self, tmp_path, weights_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        rc = cli.main(["encode", "--weights", str(weights_file),
                       "--synthetic", "rigid:100,1,0", "--precision", "6",
                       "--config", str(cfg), "--output", str(tmp_path / "x")])
        assert rc == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize("text", ["plan = fast\n", "gop = two\n", "alpha = x\n"])
    def test_unknown_key_or_bad_value_rejected(self, tmp_path, weights_file, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        rc = cli.main(["encode", "--weights", str(weights_file),
                       "--synthetic", "rigid:100,1,0", "--precision", "6",
                       "--config", str(cfg), "--output", str(tmp_path / "x")])
        assert rc == cli.EXIT_BAD_INPUT

    @pytest.mark.parametrize("option", [["--workers", "1"], ["--transmit-c3"]])
    def test_removed_encode_options_rejected(self, tmp_path, weights_file, option):
        rc = cli.main(["encode", "--weights", str(weights_file), "--synthetic",
                       "rigid:100,1,0", "--output", str(tmp_path / "x")] + option)
        assert rc == 2

    def test_invalid_lambda_rejected(self, weights_file, tmp_path, capsys):
        rc = cli.main(["encode", "--weights", str(weights_file), "--lambda", "6",
                       "--synthetic", "rigid:100,1,0", "--output", str(tmp_path / "x")])
        assert rc == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSelftestAndGradcheck:
    def test_selftest_passes(self):
        assert cli.main(["selftest", "--seed", "0"]) == 0

    def test_gradcheck_small(self, capsys):
        assert cli.main(["gradcheck", "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert "sparse_conv" in out and "pass" in out

    def test_selftest_detects_injected_corruption(self, monkeypatch):
        import voxcodec.cli as climod

        def corrupt_decode(stream):
            import numpy as np

            return np.zeros((1, 3), np.int32)

        monkeypatch.setattr(climod.octree, "octree_decode", corrupt_decode)
        assert cli.main(["selftest", "--seed", "0"]) != 0


class TestSubprocessEntry:
    def test_module_invocation(self, weights_file, tmp_path):
        rc = subprocess.run(
            [sys.executable, "-m", "voxcodec.cli", "encode",
             "--weights", str(weights_file), "--synthetic", "rigid:150,1,0",
             "--precision", "6", "--output", str(tmp_path / "enc")],
            capture_output=True, text=True)
        assert rc.returncode == 0
        assert "total bpp" in rc.stdout
