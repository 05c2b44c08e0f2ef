import json
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from voxcodec import cli, synthetic
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


    def test_octree_flags_other_than_0x01_exit_3(self, tmp_path, weights_file, encoded):
        # a well-formed frame in the raw octree format (flags 0x00) that
        # earlier decoders read; only range-coded payloads (0x01) are defined
        from voxcodec import codec, octree

        manifest = json.loads((encoded / "manifest.json").read_text())
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "manifest.json").write_text(json.dumps(manifest))
        for entry in manifest["frames"]:
            (broken / entry["file"]).write_bytes((encoded / entry["file"]).read_bytes())
        first = broken / manifest["frames"][0]["file"]
        bs = codec.parse(first.read_bytes())
        tree = octree.parse_stream(bs.get(codec.SUB_COORDS))
        raw = octree.occupancy_bytes(octree.octree_decode(tree), tree.depth)
        raw_sub = bytes([tree.depth, 0x00]) + tree.count.to_bytes(4, "little") + raw
        bs.substreams = [(sid, raw_sub if sid == codec.SUB_COORDS else d)
                         for sid, d in bs.substreams]
        first.write_bytes(codec.serialize(bs))
        rc = cli.main(["decode", "--weights", str(weights_file),
                       "--manifest", str(broken / "manifest.json"),
                       "--output", str(tmp_path / "out")])
        assert rc == cli.EXIT_BAD_INPUT

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

    @pytest.mark.parametrize("alpha", [float("nan"), -1.0, 0.0, float("inf")])
    def test_alpha_not_positive_exit_3_before_any_frame(self, tmp_path, weights_file,
                                                          encoded, alpha, capsys):
        manifest = json.loads((encoded / "manifest.json").read_text())
        manifest["alpha"] = alpha
        path = encoded / "bad-alpha.json"
        path.write_text(json.dumps(manifest))  # NaN is written as the token NaN
        out = tmp_path / "out"
        rc = cli.main(["decode", "--weights", str(weights_file), "--manifest", str(path),
                       "--output", str(out)])
        assert rc == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: alpha must be positive")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        # a carry-forward encoding, which this decoder cannot reproduce, or a
        # value that is not false
        pytest.param("latent_carry", True, id="carry-true"),
        pytest.param("latent_carry", "false", id="carry-string"),
        pytest.param("latent_carry", 0, id="carry-int"),
        pytest.param("latent_carry", None, id="carry-null"),
        pytest.param("alpha", True, id="alpha-bool"),
        pytest.param("alpha", "3.0", id="alpha-string"),
        pytest.param("alpha", 10**400, id="alpha-overflow"),
    ])
    def test_manifest_field_of_wrong_type_exit_3_before_any_frame(
            self, tmp_path, weights_file, encoded, key, value, capsys):
        manifest = json.loads((encoded / "manifest.json").read_text())
        manifest[key] = value
        path = encoded / "bad-type.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        rc = cli.main(["decode", "--weights", str(weights_file), "--manifest", str(path),
                       "--output", str(out)])
        assert rc == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith(f"error: bad manifest: \"{key}\"")
        assert not out.exists()

    def test_alpha_and_latent_carry_come_from_manifest(self, tmp_path, weights_file,
                                                       store, models):
        from voxcodec import codec, synthetic
        from voxcodec.ply import write_frame

        enc = tmp_path / "enc"
        assert cli.main(["encode", "--weights", str(weights_file), "--synthetic",
                         "rigid:300,3,1", "--precision", "6", "--alpha", "5",
                         "--gop", "2", "--output", str(enc)]) == 0
        manifest = json.loads((enc / "manifest.json").read_text())
        assert [f["type"] for f in manifest["frames"]] == ["I", "P", "I"]
        assert "latent_carry" not in manifest
        # a manifest from an older encoder names the one reference rule left
        old = dict(manifest, latent_carry=False)
        (enc / "old.json").write_text(json.dumps(old))
        names = ("frame0000", "frame0001", "frame0002")
        bitstreams = (codec.parse((enc / f"{name}.ddpc").read_bytes()) for name in names)
        results = list(codec.decode_sequence(bitstreams, models, store, alpha=5.0))
        for name in ("manifest.json", "old.json"):
            dec = tmp_path / f"dec-{name}"
            assert cli.main(["decode", "--weights", str(weights_file),
                             "--manifest", str(enc / name), "--output", str(dec)]) == 0
            for frame, res in zip(names, results, strict=True):
                write_frame(tmp_path / "api.ply", res.decoded)
                assert (dec / f"{frame}.ply").read_bytes() == (tmp_path / "api.ply").read_bytes()

    def test_synthesis_error_keeps_its_frame_label(self, tmp_path, weights_file, encoded,
                                                   monkeypatch, capsys):
        # decode_sequence defers synthesis to the first read of a result, which
        # the CLI makes inside the frame's own error label
        from voxcodec import codec
        from voxcodec.errors import VoxCodecError

        def reconstruct(*args):
            raise VoxCodecError("synthesis failed")

        monkeypatch.setattr(codec, "reconstruct", reconstruct)
        rc = cli.main(["decode", "--weights", str(weights_file),
                       "--manifest", str(encoded / "manifest.json"),
                       "--output", str(tmp_path / "out")])
        assert rc == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err == "error: frame 0: synthesis failed\n"
        assert not list((tmp_path / "out").glob("*.ply"))

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

    @pytest.mark.parametrize("peak", ["0", "-5", pytest.param("9" * 400, id="400-digits")])
    def test_non_positive_peak_exit_3(self, tmp_path, peak, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_ply(src / "f0.ply", np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9], [2, 4, 6]]))
        (tmp_path / "manifest.json").write_text(json.dumps({"frames": [{"bpp": 1.0}]}))
        csv = tmp_path / "rd.csv"
        rc = cli.main(["eval", "--precision", "7", "--decoded", str(src),
                       "--bitstream-dir", str(tmp_path), "--csv", str(csv),
                       "--peak", peak, str(src / "f0.ply")])
        assert rc == cli.EXIT_BAD_INPUT
        # a peak past the float range raised a raw OverflowError
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: d1 peak"), err
        assert not csv.exists()

    @pytest.mark.parametrize("target", ["no-such-dir/rd.csv", "."])
    def test_unwritable_csv_fails_before_any_metric(self, tmp_path, target, capsys,
                                                   monkeypatch):
        src = tmp_path / "src"
        src.mkdir()
        write_ply(src / "f0.ply", np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9], [2, 4, 6]]))
        (tmp_path / "manifest.json").write_text(json.dumps({"frames": [{"bpp": 1.0}]}))

        def no_metrics(*args, **kwargs):
            raise AssertionError("a metric ran before the CSV path was checked")

        monkeypatch.setattr(cli.metrics, "d1_psnr", no_metrics)
        rc = cli.main(["eval", "--precision", "7", "--decoded", str(src),
                       "--bitstream-dir", str(tmp_path), "--csv", str(tmp_path / target),
                       str(src / "f0.ply")])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_BAD_INPUT
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err

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

    # a manifest bpp must be a JSON number, finite and non-negative: true and
    # "NaN" were once written to the CSV as 1.0 and nan
    @pytest.mark.parametrize("bpp", [True, "NaN", "1.0", float("nan"), float("inf"), -1.0])
    def test_bad_bpp_exit_3_before_any_row(self, tmp_path, bpp, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_ply(src / "f0.ply", np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9], [2, 4, 6]]))
        bits = tmp_path / "bits"
        bits.mkdir()
        (bits / "manifest.json").write_text(json.dumps({"frames": [{"bpp": bpp}]}))
        csv = tmp_path / "x.csv"
        rc = cli.main(["eval", "--precision", "7", "--decoded", str(src),
                       "--bitstream-dir", str(bits), "--csv", str(csv), str(src / "f0.ply")])
        assert rc == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: bad manifest: frame 0 bpp")
        assert not csv.exists()

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

    def test_non_utf8_curve_exit_3(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_curve(a, 1.0)
        b.write_bytes(a.read_bytes() + b"seq,4,3,\xff,70,71\n")
        assert cli.main(["rdcsv", str(a), str(b)]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err

    @pytest.mark.parametrize("row", ["seq,0,3,1.0,60", "seq,0,3,abc,60,61",
                                     "seq,0,3,1.0,60,61,9"])
    def test_malformed_row_exit_3(self, tmp_path, row):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_curve(a, 1.0)
        self.write_curve(b, 1.0)
        b.write_text(b.read_text() + row + "\n")
        assert cli.main(["rdcsv", str(a), str(b)]) == cli.EXIT_BAD_INPUT


class TestFileErrors:
    """A file that cannot be read or written exits 3 with one error line."""

    @staticmethod
    def argv(case, tmp, weights, encoded):
        w = ["--weights", str(weights)]
        missing = tmp / "no-such-dir"
        existing = tmp / "a-file"
        existing.write_text("x\n")
        if case in ("eval-input", "eval-csv", "rdcsv-svg"):
            (tmp / "a.csv").write_text("\n".join(
                [cli.CSV_HEADER] + [f"seq,0,3,{r},{q},{q}" for r, q in
                                    [(0.5, 60), (1.0, 64), (2.0, 67), (4.0, 69)]]) + "\n")
            (tmp / "manifest.json").write_text(json.dumps({"frames": [{"bpp": 1.0}]}))
            write_ply(tmp / "f0.ply", np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
        return {
            "encode-input": ["encode", *w, "--output", str(tmp / "out"),
                             str(tmp / "missing.ply")],
            # one decoded frame and its manifest, so the count and the manifest
            # pass and the missing original is what fails
            "eval-input": ["eval", "--decoded", str(tmp), "--bitstream-dir", str(tmp),
                           "--csv", str(tmp / "rd.csv"), str(tmp / "missing.ply")],
            "encode-output": ["encode", *w, "--synthetic", "rigid:100,1,0",
                              "--precision", "6", "--output", str(existing)],
            "decode-output": ["decode", *w, "--manifest", str(encoded / "manifest.json"),
                              "--output", str(existing)],
            "eval-csv": ["eval", "--decoded", str(tmp), "--bitstream-dir", str(tmp),
                         "--csv", str(missing / "rd.csv"), str(tmp / "f0.ply")],
            "rdcsv-svg": ["rdcsv", str(tmp / "a.csv"), str(tmp / "a.csv"),
                          "--svg", str(missing / "x.svg")],
            "make-weights-output": ["make-weights", "--output", str(missing / "w.dpcw")],
        }[case]

    @pytest.mark.parametrize("case", [
        "encode-input", "eval-input", "encode-output", "decode-output",
        "eval-csv", "rdcsv-svg", "make-weights-output"])
    def test_exit_3_with_one_error_line(self, tmp_path, weights_file, encoded, case,
                                        capsys):
        rc = cli.main(self.argv(case, tmp_path, weights_file, encoded))
        err = capsys.readouterr().err
        assert rc == cli.EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert "Traceback" not in err

    def test_module_invocation_exit_3(self, tmp_path, weights_file, encoded):
        proc = subprocess.run(
            [sys.executable, "-m", "voxcodec.cli",
             *self.argv("encode-input", tmp_path, weights_file, encoded)],
            capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_BAD_INPUT
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_unreadable_weight_file_exit_2(self, tmp_path, weights_file, monkeypatch,
                                           capsys):
        def unreadable(path):
            raise OSError(f"cannot read {path}")

        monkeypatch.setattr(cli.WeightStore, "load", unreadable)
        rc = cli.main(["encode", "--weights", str(weights_file), "--synthetic",
                       "rigid:100,1,0", "--output", str(tmp_path / "out")])
        assert rc == cli.EXIT_NO_WEIGHTS
        assert capsys.readouterr().err.startswith("error: unusable weight file")


class TestSeedAndPrecision:
    """A seed outside the DPCW header's u32 field, a negative precision or a
    synthetic sequence without points exits 3 with one error line, before
    any file is written."""

    @pytest.mark.parametrize("seed", ["-1", "4294967296"])
    def test_make_weights_bad_seed_leaves_no_file(self, tmp_path, seed, capsys):
        out = tmp_path / "bad.dpcw"
        rc = cli.main(["make-weights", "--seed", seed, "--output", str(out)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1 and err.startswith("error: seed"), err
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path):
        out = tmp_path / "w.dpcw"
        assert cli.main(["make-weights", "--seed", "4294967295", "--output", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", [
        ["encode", "--synthetic", "rigid:100,1,0", "--output", "out"],
        ["eval", "--synthetic", "rigid:100,1,0", "--decoded", "dec", "--csv", "rd.csv"],
        ["selftest"],
        ["gradcheck", "--instances", "1"],
    ], ids=["encode", "eval", "selftest", "gradcheck"])
    def test_negative_seed_exit_3(self, tmp_path, weights_file, monkeypatch, command,
                                  capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DDPC_WEIGHTS", str(weights_file))
        rc = cli.main([*command, "--seed", "-1"])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1 and err.startswith("error: seed"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["encode", "eval"])
    @pytest.mark.parametrize("source,precision", [
        ("ply", "-1"), ("synthetic", "-1"), ("synthetic", "300")])
    def test_unfit_precision_exit_3(self, tmp_path, weights_file, command, source,
                                    precision, capsys):
        write_ply(tmp_path / "f0.ply", np.array([[1, 2, 3], [4, 5, 6]]))
        inputs = (["--synthetic", "rigid:100,1,0"] if source == "synthetic"
                  else [str(tmp_path / "f0.ply")])
        argv = {"encode": ["encode", "--weights", str(weights_file),
                           "--output", str(tmp_path / "out")],
                "eval": ["eval", "--decoded", str(tmp_path), "--csv",
                         str(tmp_path / "rd.csv")]}[command]
        rc = cli.main([*argv, "--precision", precision, *inputs])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err

    @pytest.mark.parametrize("source,precision", [
        ("ply", "2"), ("ply", "24"), ("synthetic", "2")])
    def test_precision_outside_octree_range_exit_3(self, tmp_path, weights_file, source,
                                                   precision, capsys):
        # the octree codes C2 at precision - 2 bits, which must lie in [1, 21]
        write_ply(tmp_path / "f0.ply", np.array([[0, 1, 2], [1, 2, 3]]))
        inputs = (["--synthetic", "rigid:5,2,0"] if source == "synthetic"
                  else [str(tmp_path / "f0.ply")])
        out = tmp_path / "out"
        rc = cli.main(["encode", "--weights", str(weights_file), "--output", str(out),
                       "--precision", precision, *inputs])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: precision {precision} outside [3, 23]"), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["encode", "eval"])
    @pytest.mark.parametrize("spec", ["rigid:0,2,0", "rigid:-3,2,0"])
    def test_synthetic_without_points_exit_3(self, tmp_path, weights_file, command, spec,
                                             capsys):
        argv = {"encode": ["encode", "--weights", str(weights_file),
                           "--output", str(tmp_path / "out")],
                "eval": ["eval", "--decoded", str(tmp_path), "--csv",
                         str(tmp_path / "rd.csv")]}[command]
        rc = cli.main([*argv, "--synthetic", spec])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1 and err.startswith("error: n_points"), err
        assert not (tmp_path / "out").exists() and not (tmp_path / "rd.csv").exists()

    def test_high_precision_ply_still_encodes(self, tmp_path, weights_file):
        # 23 bits of precision, coordinates below the 2^20 key range
        coords = np.array([[1, 2, 3], [4, 5, 6], [(1 << 20) - 1, 7, 8]])
        write_ply(tmp_path / "f0.ply", coords)
        out = tmp_path / "out"
        assert cli.main(["encode", "--weights", str(weights_file), "--precision", "23",
                         "--output", str(out), str(tmp_path / "f0.ply")]) == 0
        assert json.loads((out / "manifest.json").read_text())["precision_bits"] == 23


class TestInputNamed:
    """An input frame that fails to load names its file and frame number."""

    @staticmethod
    def inputs(tmp_path):
        good, bad = tmp_path / "a.ply", tmp_path / "bad.ply"
        write_ply(good, np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
        bad.write_text("not a ply\n")
        return str(good), str(bad)

    def test_encode_names_the_bad_frame(self, tmp_path, weights_file, capsys):
        out = tmp_path / "out"
        rc = cli.main(["encode", "--weights", str(weights_file), "--precision", "8",
                       "--output", str(out), *self.inputs(tmp_path)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_BAD_INPUT
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: {tmp_path / 'bad.ply'} (frame 1): missing 'ply'"), err
        assert (out / "frame0000.ddpc").is_file()  # frame 0 was coded before the failure

    def test_encode_failure_leaves_the_coded_frames_decodable(self, tmp_path, weights_file,
                                                              capsys):
        out, dec = tmp_path / "out", tmp_path / "dec"
        rc = cli.main(["encode", "--weights", str(weights_file), "--precision", "8",
                       "--output", str(out), *self.inputs(tmp_path)])
        assert rc == cli.EXIT_BAD_INPUT
        manifest = json.loads((out / "manifest.json").read_text())
        assert [f["file"] for f in manifest["frames"]] == ["frame0000.ddpc"]
        assert manifest["total_bpp"] == manifest["frames"][0]["bpp"]
        assert cli.main(["decode", "--weights", str(weights_file),
                         "--manifest", str(out / "manifest.json"), "--output", str(dec)]) == 0
        assert load_ply(dec / "frame0000.ply", 8).n == 3

    def test_encode_failure_at_frame_0_writes_nothing(self, tmp_path, weights_file):
        good, bad = self.inputs(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["encode", "--weights", str(weights_file), "--precision", "8",
                       "--output", str(out), bad, good])
        assert rc == cli.EXIT_BAD_INPUT
        assert not out.exists()

    def test_eval_names_the_bad_frame(self, tmp_path, capsys):
        # the originals load one by one, after the count and manifest checks:
        # frame 0 is computed, then frame 1's original fails
        inputs = self.inputs(tmp_path)
        bits = tmp_path / "bits"
        bits.mkdir()
        (bits / "manifest.json").write_text(json.dumps(
            {"frames": [{"file": f"f{i}.ddpc", "bpp": 1.0} for i in range(2)]}))
        rc = cli.main(["eval", "--precision", "8", "--decoded", str(tmp_path),
                       "--bitstream-dir", str(bits), "--csv", str(tmp_path / "rd.csv"),
                       *inputs])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_BAD_INPUT
        assert err.startswith(f"error: {tmp_path / 'bad.ply'} (frame 1): missing 'ply'"), err
        assert out.startswith("seq,0,3,1.0,"), out  # frame 0's row was computed
        assert not (tmp_path / "rd.csv").exists()

    def test_eval_counts_before_it_loads(self, tmp_path, capsys):
        # a count mismatch is found before any original is loaded, the bad
        # one included
        good, bad = self.inputs(tmp_path)
        dec = tmp_path / "dec"
        dec.mkdir()
        (dec / "f0.ply").write_bytes(Path(good).read_bytes())
        rc = cli.main(["eval", "--precision", "8", "--decoded", str(dec),
                       "--csv", str(tmp_path / "rd.csv"), bad, good])
        assert rc == cli.EXIT_COUNT_MISMATCH
        assert "2 originals vs 1 decoded" in capsys.readouterr().err

    def test_eval_names_the_bad_decoded_frame(self, tmp_path, capsys):
        good, bad = self.inputs(tmp_path)
        dec = tmp_path / "dec"
        dec.mkdir()
        (dec / "f0.ply").write_bytes(Path(good).read_bytes())
        (dec / "f1.ply").write_bytes(Path(bad).read_bytes())
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"frames": [{"file": f"f{i}.ddpc", "bpp": 1.0} for i in range(2)]}))
        rc = cli.main(["eval", "--precision", "8", "--decoded", str(dec),
                       "--csv", str(tmp_path / "rd.csv"), good, good])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_BAD_INPUT
        assert err.startswith(f"error: {dec / 'f1.ply'} (frame 1): missing 'ply'"), err
        assert not (tmp_path / "rd.csv").exists()

    def test_coordinate_past_key_range_names_file_and_range(self, tmp_path, weights_file,
                                                            capsys):
        # 21 bits of precision admit 2^20, one past the signed 21-bit key range
        ply = tmp_path / "f0.ply"
        write_ply(ply, np.array([[1, 2, 3], [1 << 20, 5, 6]]))
        rc = cli.main(["encode", "--weights", str(weights_file), "--precision", "21",
                       "--output", str(tmp_path / "out"), str(ply)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_BAD_INPUT
        assert err.startswith(f"error: {ply} (frame 0): "), err
        assert "21-bit range [-2^20, 2^20)" in err, err


class TestStreamedInput:
    def test_encoder_holds_no_past_frame(self, tmp_path, weights_file):
        # each PLY is loaded when the encoder asks for it, so four more frames
        # must not raise the traced peak by one frame's 24 B per point
        frame = synthetic.make_rigid_sequence(3000, 1, 0, 7, seed=8)[0]
        ply = str(tmp_path / "f.ply")
        write_ply(ply, frame.points.coords)

        def encode(copies, name):
            return cli.main(["encode", "--weights", str(weights_file), "--precision", "7",
                             "--output", str(tmp_path / name), *[ply] * copies])

        assert encode(1, "warm") == 0  # one-off allocations stay out of the peaks
        peaks = {}
        for copies in (4, 8):
            tracemalloc.start()
            try:
                assert encode(copies, f"x{copies}") == 0
                peaks[copies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] - peaks[4] < 24 * frame.n

    @pytest.mark.parametrize("gop", ["0", "2"])
    def test_manifest_counts_come_from_the_coded_frames(self, tmp_path, weights_file, gop):
        frames = synthetic.make_rigid_sequence(300, 3, 1, 6, seed=4)
        plys = []
        for i, frame in enumerate(frames):
            plys.append(str(tmp_path / f"f{i}.ply"))
            write_ply(plys[-1], frame.points.coords)
        out = tmp_path / "out"
        assert cli.main(["encode", "--weights", str(weights_file), "--precision", "6",
                         "--gop", gop, "--output", str(out), *plys]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["gop"] == (int(gop) or 3)
        assert [f["n_points"] for f in manifest["frames"]] == [f.n for f in frames]


class TestConfig:
    """Each run parameter has one way in: its option."""

    @pytest.mark.parametrize("alpha", [["--alpha", "nan"], ["--alpha", "-1"],
                                       ["--alpha", "inf"]],
                             ids=["option-nan", "option-negative", "option-inf"])
    def test_alpha_not_positive_exit_3_before_any_frame(self, tmp_path, weights_file,
                                                          alpha, capsys):
        out = tmp_path / "x"
        rc = cli.main(["encode", "--weights", str(weights_file),
                       "--synthetic", "rigid:100,2,0", "--precision", "6",
                       *alpha, "--output", str(out)])
        assert rc == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: alpha must be positive")
        assert not out.exists()

    @pytest.mark.parametrize("gop", [["--gop", "-2"]], ids=["option"])
    def test_negative_gop_exit_3_before_any_frame(self, tmp_path, weights_file, gop,
                                                  capsys):
        out = tmp_path / "x"
        rc = cli.main(["encode", "--weights", str(weights_file),
                       "--synthetic", "rigid:100,3,0", "--precision", "6",
                       *gop, "--output", str(out)])
        assert rc == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: gop must be non-negative")
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--workers", "1"], ["--transmit-c3"],
                                        ["--latent-carry"], ["--config", "x.cfg"]])
    def test_removed_encode_options_rejected(self, tmp_path, weights_file, option):
        rc = cli.main(["encode", "--weights", str(weights_file), "--synthetic",
                       "rigid:100,1,0", "--output", str(tmp_path / "x")] + option)
        assert rc == 2

    def test_eval_config_rejected(self, tmp_path):
        csv = tmp_path / "rd.csv"
        rc = cli.main(["eval", "--synthetic", "rigid:100,1,0", "--decoded", str(tmp_path),
                       "--csv", str(csv), "--config", "x.cfg"])
        assert rc == 2
        assert not csv.exists()

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
        assert re.search(r"^chain +\S+ +\S+ pass$", out, re.M)

    def test_selftest_detects_injected_corruption(self, monkeypatch):
        import voxcodec.cli as climod

        def corrupt_decode(stream):
            import numpy as np

            return np.zeros((1, 3), np.int32)

        monkeypatch.setattr(climod.octree, "octree_decode", corrupt_decode)
        assert cli.main(["selftest", "--seed", "0"]) != 0

    def test_selftest_checks_survive_python_O(self):
        # python -O strips assert statements; the selftest must still fail
        script = ("import sys, numpy as np\n"
                  "from voxcodec import cli, octree\n"
                  "octree.octree_decode = lambda stream: np.zeros((1, 3), np.int32)\n"
                  "sys.exit(cli.main(['selftest', '--seed', '0']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert "selftest octree-roundtrip: FAILED" in proc.stdout


class TestSubprocessEntry:
    def test_module_invocation(self, weights_file, tmp_path):
        rc = subprocess.run(
            [sys.executable, "-m", "voxcodec.cli", "encode",
             "--weights", str(weights_file), "--synthetic", "rigid:150,1,0",
             "--precision", "6", "--output", str(tmp_path / "enc")],
            capture_output=True, text=True)
        assert rc.returncode == 0
        assert "total bpp" in rc.stdout
