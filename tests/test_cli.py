import json
import time

import pytest

from fourlines import (
    CertificateFailure,
    MatQ,
    SingularMatrixError,
    Y_SIGN,
    blocks_of_canonical,
    random_tp_instance,
)
from fourlines import cli
from fourlines.curves import MAX_GRID, MAX_SCHUBERT_N
from fourlines.identity import MAX_SPOTS
from fourlines import serialize as ser
from fourlines.cli import run

from conftest import X1_ENTRIES


def write_x1_config(path):
    blocks = blocks_of_canonical(MatQ(X1_ENTRIES))
    path.write_text(ser.dumps(ser.blocks_to_obj(blocks)))


class TestCheckTP:
    def test_positive_instance(self, tmp_path, capsys):
        inp = tmp_path / "cfg.json"
        write_x1_config(inp)
        assert run(["check-tp", "--input", str(inp)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"ok": True, "witness": None}

    def test_negative_instance(self, tmp_path, capsys):
        bad = blocks_of_canonical(Y_SIGN @ MatQ(X1_ENTRIES))
        inp = tmp_path / "cfg.json"
        inp.write_text(ser.dumps(ser.blocks_to_obj(bad)))
        assert run(["check-tp", "--input", str(inp)]) == 3
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is False
        assert obj["witness"]["cols"] and obj["witness"]["minor"]

    def test_missing_file(self, tmp_path, capsys):
        assert run(["check-tp", "--input", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        inp = tmp_path / "cfg.json"
        inp.write_text("{broken")
        assert run(["check-tp", "--input", str(inp)]) == 2


class TestFactor:
    def test_all_ones_matrix(self, tmp_path, capsys):
        inp = tmp_path / "x.json"
        inp.write_text(ser.dumps(ser.mat_to_obj(MatQ(X1_ENTRIES))))
        assert run(["factor", "--input", str(inp)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {name: "1" for name in "abcdefghijklmnop"}

    def test_non_tp_matrix(self, tmp_path, capsys):
        inp = tmp_path / "x.json"
        inp.write_text(ser.dumps(ser.mat_to_obj(MatQ.identity(4))))
        assert run(["factor", "--input", str(inp)]) == 3


class TestSolve:
    def test_single_instance(self, tmp_path, capsys):
        inp = tmp_path / "cfg.json"
        write_x1_config(inp)
        out = tmp_path / "sol.json"
        assert run(["solve", "--input", str(inp), "--output", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["quadratic"]["D"] == "320"
        assert len(obj["lines"]) == 2
        assert obj["warnings"] == []

    def test_text_format(self, tmp_path, capsys):
        inp = tmp_path / "cfg.json"
        write_x1_config(inp)
        assert run(["solve", "--input", str(inp), "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "quadratic" in text and "D: 320" in text

    def test_batch(self, tmp_path, capsys):
        indir = tmp_path / "batch"
        indir.mkdir()
        for seed in (1, 2, 3):
            _, blocks = random_tp_instance(seed, bound=5)
            (indir / f"inst{seed}.json").write_text(ser.dumps(ser.blocks_to_obj(blocks)))
        outdir = tmp_path / "out"
        assert run(["solve", "--batch", str(indir), "--output", str(outdir)]) == 0
        sols = sorted(p.name for p in outdir.glob("*.solution.json"))
        assert sols == ["inst1.solution.json", "inst2.solution.json", "inst3.solution.json"]
        for p in outdir.glob("*.solution.json"):
            assert len(json.loads(p.read_text())["lines"]) == 2

    def test_no_input(self, capsys):
        assert run(["solve"]) == 2


class TestVerifyIdentity:
    def test_certificate(self, capsys):
        assert run(["verify-identity", "--spots", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["equal"] is True
        assert obj["spot_evaluations"][0]["lhs"] == "320"

    @pytest.mark.parametrize("spots", [0, -1, MAX_SPOTS + 1])
    def test_spots_out_of_range_exit_2_quickly(self, capsys, spots):
        start = time.perf_counter()
        assert run(["verify-identity", "--spots", str(spots)]) == 2
        assert time.perf_counter() - start < 1
        assert f"1..{MAX_SPOTS}" in capsys.readouterr().err

    def test_spots_cap(self, capsys):
        assert run(["verify-identity", "--spots", str(MAX_SPOTS)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["equal"] is True
        assert len(obj["spot_evaluations"]) == MAX_SPOTS
        assert all(s["lhs"] == s["rhs"] for s in obj["spot_evaluations"])


class TestCurveSample:
    def test_auto_epsilon(self, capsys):
        assert run(["curve-sample", "--ts", "1/10,3/10,5/10,7/10"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True
        assert obj["epsilon"] == "1/20"

    def test_explicit_epsilon(self, capsys):
        assert run(["curve-sample", "--ts", "1/10,3/10,5/10,7/10", "--epsilon", "1/100"]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == "1/100"

    def test_bad_ts(self, capsys):
        assert run(["curve-sample", "--ts", "1/10,oops"]) == 2

    @pytest.mark.parametrize("literal", ["1e999999999", "0.3", "1_0", "1/0", "1" * 5000])
    def test_hostile_literals_exit_2_quickly(self, capsys, literal):
        start = time.perf_counter()
        assert run(["curve-sample", "--ts", f"1/10,3/10,5/10,{literal}"]) == 2
        assert run(["curve-sample", "--ts", "1/10,3/10,5/10,7/10", "--epsilon", literal]) == 2
        assert time.perf_counter() - start < 2
        assert "rational literal" in capsys.readouterr().err

    def test_hostile_literal_in_json(self, tmp_path, capsys):
        spec = {"kind": "polynomial",
                "components": [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1e999999999"]]}
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(spec))
        assert run(["curve-sample", "--ts", "1/10,3/10,5/10,7/10", "--curve", str(path)]) == 2

    def test_failed_search_exits_3(self, tmp_path, capsys):
        # (1, t, t^2, t^3 - 3t^4) is not convex on [0, 1]: no epsilon certifies
        spec = {"kind": "polynomial",
                "components": [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1", "-3"]]}
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(spec))
        assert run(["curve-sample", "--ts", "1/10,3/10,5/10,9/10", "--curve", str(path)]) == 3
        assert "no certifying epsilon" in capsys.readouterr().err

    def test_custom_curve(self, tmp_path, capsys):
        spec = {"kind": "polynomial", "components": [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]}
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(spec))
        assert run(["curve-sample", "--ts", "1/10,3/10,5/10,7/10", "--curve", str(path)]) == 0


class TestOthers:
    def test_schubert_count(self, capsys):
        assert run(["schubert-count", "--k", "1", "--n", "3"]) == 0
        assert capsys.readouterr().out == "2\n"
        assert run(["schubert-count", "--k", "2", "--n", "5"]) == 0
        assert capsys.readouterr().out == "42\n"
        assert run(["schubert-count", "--k", "3", "--n", "3"]) == 2

    def test_schubert_cap(self, capsys):
        assert run(["schubert-count", "--k", str(MAX_SCHUBERT_N // 2), "--n", str(MAX_SCHUBERT_N)]) == 0
        assert capsys.readouterr().out.strip().isdigit()
        assert run(["schubert-count", "--k", "1", "--n", str(MAX_SCHUBERT_N + 1)]) == 2
        assert "exceeds the cap" in capsys.readouterr().err

    def test_grid_cap(self, capsys):
        assert run(["convexity-check", "--grid", str(MAX_GRID)]) == 0
        assert len(json.loads(capsys.readouterr().out)["grid"]) == MAX_GRID
        assert run(["convexity-check", "--grid", str(MAX_GRID + 1)]) == 2

    def test_convexity_check(self, capsys):
        assert run(["convexity-check", "--grid", "8"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True and obj["verdict"] == "sampled-consistent"

    def test_random_instance_feeds_solve(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        assert run(["random-instance", "--seed", "7", "--output", str(inst)]) == 0
        obj = json.loads(inst.read_text())
        assert set(obj) >= {"blocks", "params", "seed", "bound"}
        assert run(["solve", "--input", str(inst)]) == 0
        assert len(json.loads(capsys.readouterr().out)["lines"]) == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [(SingularMatrixError(), 4),
                                             (CertificateFailure("tampered"), 5)])
    def test_library_errors(self, tmp_path, capsys, monkeypatch, error, code):
        inp = tmp_path / "cfg.json"
        write_x1_config(inp)

        def fail(blocks):
            raise error

        monkeypatch.setattr(cli, "solve_transversals", fail)
        assert run(["solve", "--input", str(inp)]) == code
        assert capsys.readouterr().err.startswith("error: ")

    def test_batch_isolates_each_file(self, tmp_path, capsys, monkeypatch):
        indir = tmp_path / "batch"
        indir.mkdir()
        for seed in (1, 2, 3):
            _, blocks = random_tp_instance(seed, bound=5)
            (indir / f"inst{seed}.json").write_text(ser.dumps(ser.blocks_to_obj(blocks)))
        solve = cli.solve_transversals
        bad = ser.blocks_from_obj(json.loads((indir / "inst2.json").read_text()))

        def fail_on_bad(blocks):
            if blocks == bad:
                raise CertificateFailure("tampered")
            return solve(blocks)

        monkeypatch.setattr(cli, "solve_transversals", fail_on_bad)
        outdir = tmp_path / "out"
        assert run(["solve", "--batch", str(indir), "--output", str(outdir)]) == 5
        sols = sorted(p.name for p in outdir.glob("*.solution.json"))
        assert sols == ["inst1.solution.json", "inst3.solution.json"]
        assert "inst2.json: tampered" in capsys.readouterr().err
