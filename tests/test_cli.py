import json
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourlines import (
    CertificateFailure,
    ConfigBlocks,
    MatQ,
    NoRealSolution,
    NotTotallyPositive,
    SingularMatrixError,
    Y_SIGN,
    blocks_of_canonical,
    random_tp_instance,
)
import fourlines
from fourlines import curves, exact, totalpos, transversal
from fourlines.curves import MAX_CURVE_COEFFS, MAX_CURVE_LITERAL, MAX_GRID, MAX_SCHUBERT_N, lemma_sample
from fourlines.errors import number_text
from fourlines.exact import MinorTable
from fourlines.identity import MAX_SPOTS
from fourlines.totalpos import MAX_BOUND, SINGULAR_W34
from fourlines import serialize as ser
from fourlines.cli import _build_parser, run

from conftest import X1_ENTRIES, late, swap_w3_columns


def write_x1_config(path):
    blocks = blocks_of_canonical(MatQ(X1_ENTRIES))
    path.write_text(ser.dumps(ser.blocks_to_obj(blocks)))


def write_scaled_instance(path, block, factor):
    """random_tp_instance(0) with every entry of one block multiplied by factor."""
    ws = list(random_tp_instance(0)[1].blocks())
    ws[block] = ws[block].map(lambda v: v * factor)
    obj = ser.blocks_to_obj(ConfigBlocks(*ws))
    assert max(len(x) for w in obj["blocks"] for row in w for x in row) <= ser.MAX_RATIONAL_LENGTH
    path.write_text(ser.dumps(obj))


#: Numerator and denominator of 2,000 digits each: the input literals stay
#: under 4,096 characters, but the solution holds numbers of 8,006 digits.
LONG = Fraction(10**1999 + 7, 10**1999 + 3)

#: The quartic (1, t, t^2, t^3 - t^4), not convex on [0, 1].
QUARTIC_MINUS_1 = [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1", "-1"]]
#: Refused ``curve-sample --epsilon auto`` runs: name -> (curve components,
#: ts, MAX_HALVINGS, exact stderr).  Each exits 3 and writes nothing.
REFUSALS = {
    "kappa-2-negative": (
        QUARTIC_MINUS_1, "48/100,61/100,78/100,81/100", 64,
        "error: no certifying epsilon: sample minor {1,2,3,4} is eps^2 * P(eps) "
        "with P(0) < 0, and P <= 0 on (0, 3/800]\n"),
    "kappa-1-negative": (
        QUARTIC_MINUS_1, "17/100,31/100,70/100,76/100", 64,
        "error: no certifying epsilon: sample minor {1,2,3,5} is eps^1 * P(eps) "
        "with P(0) < 0, and P <= 0 on (0, 3/400]\n"),
    "kappa-2-zero": (
        QUARTIC_MINUS_1, "1/100,10/100,14/100,40/100", 64,
        "error: no certifying epsilon: sample minor {3,4,7,8} is eps^2 * P(eps) "
        "with P(0) = 0, and P <= 0 on (0, 1/200]\n"),
    "sum-ts-1": (
        QUARTIC_MINUS_1, "1/10,2/10,3/10,4/10", 64,
        "error: no certifying epsilon: sample minor {1,2,7,8} is eps^2 * P(eps) "
        "with P(0) = 0, and P <= 0 on (0, 1/80]\n"),
    "kappa-0-negative": (
        [["5/6", "9/2", "1", "5", "1"], ["8/3", "2/5", "0", "3/5"], ["-1", "3", "3/2", "4/7"], ["-9/4"]],
        "1/10,3/10,5/10,7/10", 64,
        "error: no certifying epsilon: sample minor {1,3,5,7} is eps^0 * P(eps) "
        "with P(0) < 0, and P <= 0 on (0, 1/40]\n"),
    "run-out": (
        QUARTIC_MINUS_1, "1/10,3/10,5/10,9/10", 1,
        "error: no certifying epsilon found after 1 halvings\n"),
}


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

    def test_canonical_basis_orientation_flipped(self, tmp_path, capsys):
        inp = tmp_path / "cfg.json"
        inp.write_text(ser.dumps(ser.blocks_to_obj(swap_w3_columns(random_tp_instance(0)[1]))))
        assert run(["solve", "--input", str(inp)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["warnings"] == ["hypothesis-not-verified", "canonical-basis-orientation-flipped"]

    def test_text_format(self, tmp_path, capsys):
        inp = tmp_path / "cfg.json"
        write_x1_config(inp)
        assert run(["solve", "--input", str(inp), "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "quadratic" in text and "D: 320" in text
        # each row of g and X and each form, root and line is its own "-"
        # item, with its entries nested below it
        lines = text.splitlines()
        keys = [i for i, line in enumerate(lines) if not line.startswith(" ")] + [len(lines)]
        items = {lines[i]: lines[i + 1:j] for i, j in zip(keys, keys[1:])}
        markers = {key: body.count("  -") for key, body in items.items()}
        assert markers == {"g:": 4, "X:": 4, "forms:": 2, "quadratic:": 0, "roots:": 2, "lines:": 2,
                           "incidence:": 4, "warnings:": 0}
        assert items["g:"][:2] == ["  -", "    - 1"] and items["forms:"][:2] == ["  -", "    c_xy: 2"]

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

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.write_text("{}")],
                             ids=["missing", "file"])
    def test_batch_not_a_directory(self, tmp_path, capsys, make):
        indir = tmp_path / "batch"
        make(indir)
        outdir = tmp_path / "out"
        assert run(["solve", "--batch", str(indir), "--output", str(outdir)]) == 2
        assert "not a directory" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--format", "text"], "solve --batch writes JSON files: --format text needs --input"),
        (["--input", "inst.json"], "solve takes --input or --batch, not both"),
    ], ids=["format-text", "input"])
    def test_batch_refuses_an_option_it_would_ignore(self, tmp_path, capsys, extra, message):
        indir = tmp_path / "batch"
        indir.mkdir()
        _, blocks = random_tp_instance(1, bound=5)
        (indir / "inst.json").write_text(ser.dumps(ser.blocks_to_obj(blocks)))
        outdir = tmp_path / "out"
        argv = ["solve", "--batch", str(indir), "--output", str(outdir), *extra]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists() and [p.name for p in indir.iterdir()] == ["inst.json"]

    def test_no_input(self, capsys):
        assert run(["solve"]) == 2

    def test_output_number_over_the_print_limit_exits_2(self, tmp_path, capsys):
        inp, out = tmp_path / "cfg.json", tmp_path / "sol.json"
        write_scaled_instance(inp, 0, LONG)
        start = time.perf_counter()
        assert run(["solve", "--input", str(inp), "--output", str(out)]) == 2
        assert time.perf_counter() - start < 1
        assert "output number of 8006 digits exceeds" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_reports_an_unprintable_solution_and_goes_on(self, tmp_path, capsys):
        indir = tmp_path / "batch"
        indir.mkdir()
        write_scaled_instance(indir / "inst1.json", 0, LONG)
        write_scaled_instance(indir / "inst2.json", 0, 1)
        outdir = tmp_path / "out"
        assert run(["solve", "--batch", str(indir), "--output", str(outdir)]) == 2
        assert [p.name for p in outdir.glob("*.solution.json")] == ["inst2.solution.json"]
        assert "inst1.json: an output number of 8006 digits" in capsys.readouterr().err

    def test_batch_reports_an_unwritable_output_and_goes_on(self, tmp_path, capsys):
        # inst1's output path is a directory, inst3 is degenerate (W4 = W3)
        indir, outdir = tmp_path / "batch", tmp_path / "out"
        indir.mkdir()
        (outdir / "inst1.solution.json").mkdir(parents=True)
        for seed in (1, 2, 3, 4):
            ws = list(random_tp_instance(seed, bound=5)[1].blocks())
            if seed == 3:
                ws[3] = ws[2]
            (indir / f"inst{seed}.json").write_text(ser.dumps(ser.blocks_to_obj(ConfigBlocks(*ws))))
        assert run(["solve", "--batch", str(indir), "--output", str(outdir)]) == 4
        assert sorted(p.name for p in outdir.glob("*.solution.json") if p.is_file()) == [
            "inst2.solution.json", "inst4.solution.json"]
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == ["inst1.json", "inst3.json"]
        assert "Is a directory" in err[0] and "[W3 W4] is singular" in err[1]
        (indir / "inst3.json").unlink()
        assert run(["solve", "--batch", str(indir), "--output", str(outdir)]) == 2

    @staticmethod
    def write_batch(indir, degenerate=()):
        """random_tp_instance(seed) as inst<seed>.json for seeds 1 to 3,
        with W4 = W3 in the seeds listed as degenerate."""
        indir.mkdir(exist_ok=True)
        for seed in (1, 2, 3):
            ws = list(random_tp_instance(seed, bound=5)[1].blocks())
            if seed in degenerate:
                ws[3] = ws[2]
            (indir / f"inst{seed}.json").write_text(ser.dumps(ser.blocks_to_obj(ConfigBlocks(*ws))))

    def test_batch_removes_the_solution_of_a_failing_file(self, tmp_path, capsys):
        indir, outdir = tmp_path / "batch", tmp_path / "out"
        argv = ["solve", "--batch", str(indir), "--output", str(outdir)]
        self.write_batch(indir)
        assert run(argv) == 0
        self.write_batch(indir, degenerate=(2,))
        capsys.readouterr()
        assert run(argv) == 4
        assert sorted(p.name for p in outdir.iterdir()) == ["inst1.solution.json", "inst3.solution.json"]
        assert capsys.readouterr().err == f"inst2.json: {SINGULAR_W34}\n"

    def test_batch_reports_a_failed_removal_and_goes_on(self, tmp_path, capsys, monkeypatch):
        indir, outdir = tmp_path / "batch", tmp_path / "out"
        argv = ["solve", "--batch", str(indir), "--output", str(outdir)]
        self.write_batch(indir)
        assert run(argv) == 0
        self.write_batch(indir, degenerate=(2,))
        (outdir / "inst3.solution.json").unlink()
        capsys.readouterr()

        def deny(path, missing_ok=False):
            raise PermissionError(f"cannot remove {path.name}")

        monkeypatch.setattr(Path, "unlink", deny)
        assert run(argv) == 4
        assert sorted(p.name for p in outdir.iterdir()) == [
            "inst1.solution.json", "inst2.solution.json", "inst3.solution.json"]
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[0] for line in err] == ["inst2.json", "inst2.json"]
        assert err[1] == "inst2.json: cannot remove inst2.solution.json"

    @pytest.mark.parametrize("block", [0, 2])
    def test_approx_outside_the_float_range_is_null(self, tmp_path, capsys, block):
        inp = tmp_path / "cfg.json"
        write_scaled_instance(inp, block, 10**400)
        start = time.perf_counter()
        assert run(["solve", "--input", str(inp)]) == 0
        assert time.perf_counter() - start < 1
        obj = json.loads(capsys.readouterr().out)
        sol = transversal.solve_transversals(ser.blocks_from_obj(json.loads(inp.read_text())))
        for line, ln in zip(obj["lines"], sol.lines):
            assert None in line["approx"]
            assert line["plucker"] == [ser.quad_to_obj(v) for v in ln.plucker]
            assert line["span"] == [[ser.quad_to_obj(v) for v in row] for row in ln.span.entries()]


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

    def test_long_ts_exit_2_quickly(self, capsys):
        # four 801-character rationals: once a traceback from printing the
        # sample, now refused by the literal cap
        ts = ",".join(f"{k * 10**399 + 1}/{10**400 - k}" for k in (3, 5, 7, 9))
        start = time.perf_counter()
        assert run(["curve-sample", "--ts", ts]) == 2
        assert time.perf_counter() - start < 1
        assert f"rational literal of 801 characters exceeds {MAX_CURVE_LITERAL}" in capsys.readouterr().err

    def test_curve_caps(self, tmp_path, capsys):
        # The quartic (1, t, t^2, t^3 + c t^4), each component padded with
        # zeros to n coefficients; c, each t and epsilon have
        # MAX_CURVE_LITERAL characters, plus `extra`.
        def curve_sample(n=MAX_CURVE_COEFFS, extra=(0, 0, 0)):
            c = "-1/1" + "0" * (MAX_CURVE_LITERAL - 4 + extra[0])
            ts = ",".join(f"{k}/1" + "0" * (MAX_CURVE_LITERAL - 3 + extra[1]) for k in (1, 3, 5, 7))
            eps = "1/" + "9" * (MAX_CURVE_LITERAL - 2 + extra[2])
            comps = [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1", c]]
            path = tmp_path / "curve.json"
            path.write_text(json.dumps({"kind": "polynomial",
                                        "components": [cs + ["0"] * (n - len(cs)) for cs in comps]}))
            start = time.perf_counter()
            code = run(["curve-sample", "--ts", ts, "--epsilon", eps, "--curve", str(path)])
            assert time.perf_counter() - start < 1
            return code

        assert curve_sample() == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        for extra in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert curve_sample(extra=extra) == 2
            assert f"of {MAX_CURVE_LITERAL + 1} characters exceeds" in capsys.readouterr().err
        assert curve_sample(n=MAX_CURVE_COEFFS + 1) == 2
        assert f"more than {MAX_CURVE_COEFFS} coefficients" in capsys.readouterr().err

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

    def test_refused_search_stops_early(self, tmp_path, capsys, monkeypatch):
        # the golden refused case: (1, t, t^2, t^3 - t^4) at 1/10,3/10,5/10,9/10
        spec = {"kind": "polynomial", "components": QUARTIC_MINUS_1}
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(spec))
        calls, tables = [], []

        def counted(*args, **kwargs):
            calls.append(args)
            return lemma_sample(*args, **kwargs)

        def counted_table(ints, scales):
            tables.append(len(ints))
            return MinorTable(ints, scales)

        monkeypatch.setattr(curves, "lemma_sample", counted)
        monkeypatch.setattr(curves, "MinorTable", counted_table)
        out = tmp_path / "out.json"
        argv = ["curve-sample", "--ts", "1/10,3/10,5/10,9/10", "--epsilon", "auto",
                "--curve", str(path), "--output", str(out)]
        assert run(argv) == 3
        assert not out.exists()
        # a P_I(0) <= 0 refuses before the second halving, naming that sample minor
        assert capsys.readouterr().err == (
            "error: no certifying epsilon: sample minor {1,2,3,5} is eps^1 * P(eps) "
            "with P(0) = 0, and P <= 0 on (0, 1/80]\n")
        assert len(calls) == 1
        # the refusal reads the failed sample's own minors: one 8-row sample
        # table in all (det W0 reads a 4-row table of its own)
        assert tables.count(8) == 1

    @pytest.mark.parametrize("moved", [False, True])
    def test_auto_epsilon_counts(self, tmp_path, monkeypatch, moved):
        # The search runs in curve coordinates: no matrix product, the one
        # inverse of frenet_basis (to print W), one lemma_sample per halving.
        # ``moved`` takes d_1 to d_1 - 100 v_1 (``late``): four halvings.
        counts = {"@": 0, "inverse": 0}
        epsilons = []
        matmul, inverse, sample, frames = MatQ.__matmul__, MatQ.inverse, lemma_sample, curves._frames

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def halving(*args, **kwargs):
            epsilons.append(args[2])
            return sample(*args, **kwargs)

        monkeypatch.setattr(MatQ, "__matmul__", counted("@", matmul))
        monkeypatch.setattr(MatQ, "inverse", counted("inverse", inverse))
        monkeypatch.setattr(curves, "lemma_sample", halving)
        if moved:
            monkeypatch.setattr(curves, "_frames", lambda curve, ts: late(frames(curve, ts)))
        out = tmp_path / "out.json"
        assert run(["curve-sample", "--ts", "1/10,3/10,5/10,7/10", "--epsilon", "auto", "--output", str(out)]) == 0
        eps = Fraction(json.loads(out.read_text())["epsilon"])
        assert eps == (Fraction(1, 160) if moved else Fraction(1, 20))
        assert counts == {"@": 0, "inverse": 1}
        assert epsilons == [Fraction(1, 20) / 2**k for k in range(4 if moved else 1)]

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_refusal_stderr(self, tmp_path, capsys, monkeypatch, name):
        components, ts, halvings, err = REFUSALS[name]
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"kind": "polynomial", "components": components}))
        monkeypatch.setattr(curves, "MAX_HALVINGS", halvings)
        out = tmp_path / "out.json"
        argv = ["curve-sample", "--ts", ts, "--epsilon", "auto", "--curve", str(path), "--output", str(out)]
        assert run(argv) == 3
        assert not out.exists()
        assert capsys.readouterr() == ("", err)

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

    def test_random_instance_bound_cap(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        assert run(["random-instance", "--seed", "3", "--bound", str(MAX_BOUND),
                    "--output", str(inst)]) == 0
        assert run(["check-tp", "--input", str(inst)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        start = time.perf_counter()
        assert run(["random-instance", "--seed", "3", "--bound", str(MAX_BOUND + 1)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert "bound must be <= 10^100" in captured.err and captured.out == ""

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

        monkeypatch.setattr(transversal, "solve_transversals", fail)
        assert run(["solve", "--input", str(inp)]) == code
        assert capsys.readouterr().err.startswith("error: ")

    def test_batch_isolates_each_file(self, tmp_path, capsys, monkeypatch):
        indir = tmp_path / "batch"
        indir.mkdir()
        for seed in (1, 2, 3):
            _, blocks = random_tp_instance(seed, bound=5)
            (indir / f"inst{seed}.json").write_text(ser.dumps(ser.blocks_to_obj(blocks)))
        solve = transversal.solve_transversals
        bad = ser.blocks_from_obj(json.loads((indir / "inst2.json").read_text()))

        def fail_on_bad(blocks):
            if blocks == bad:
                raise CertificateFailure("tampered")
            return solve(blocks)

        monkeypatch.setattr(transversal, "solve_transversals", fail_on_bad)
        outdir = tmp_path / "out"
        assert run(["solve", "--batch", str(indir), "--output", str(outdir)]) == 5
        sols = sorted(p.name for p in outdir.glob("*.solution.json"))
        assert sols == ["inst1.solution.json", "inst3.solution.json"]
        assert "inst2.json: tampered" in capsys.readouterr().err


#: X of [X Y] with D = -476: no real transversal.
NEGATIVE_D_X = [[3, 0, 0, 2], [-2, -1, 1, 2], [3, 2, 2, -1], [-3, 0, 2, 1]]
#: X with D = 0: one double root.
DOUBLE_ROOT_X = [[2, 3, -3, 1], [0, 0, 0, -1], [-1, 3, 3, -1], [0, 3, 2, -2]]


def run_err(argv, capsys) -> tuple:
    """Exit code and stderr of a command that must write nothing to stdout."""
    code = run(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def write_obj(tmp_path, obj) -> str:
    path = tmp_path / "in.json"
    path.write_text(ser.dumps(obj))
    return str(path)


class TestErrorPaths:
    """Each refusal's exit code and exact stderr through ``run``."""

    def test_negative_discriminant(self, tmp_path, capsys):
        path = write_obj(tmp_path, ser.blocks_to_obj(blocks_of_canonical(MatQ(NEGATIVE_D_X))))
        assert run_err(["solve", "--input", path], capsys) == (
            3, "error: negative discriminant -476\n")

    def test_double_root(self, tmp_path, capsys):
        path = write_obj(tmp_path, ser.blocks_to_obj(blocks_of_canonical(MatQ(DOUBLE_ROOT_X))))
        assert run_err(["solve", "--input", path], capsys) == (
            4, "error: expected exactly two chart solutions\n")

    def test_singular_w34_builds_one_minor_table(self, tmp_path, capsys, monkeypatch):
        b = random_tp_instance(0)[1]
        blocks = ConfigBlocks(b.w1, b.w2, b.w3, b.w3.map(lambda v: 2 * v))
        calls = []
        table = totalpos.minor_table
        monkeypatch.setattr(totalpos, "minor_table", lambda cols: calls.append(1) or table(cols))
        path = write_obj(tmp_path, ser.blocks_to_obj(blocks))
        assert run_err(["solve", "--input", path], capsys) == (
            4, "error: [W3 W4] is singular: degenerate configuration\n")
        assert len(calls) == 1

    @pytest.mark.parametrize("command, pairings, made", [("check-tp", 26, 17), ("solve", 33, 18)],
                             ids=["check-tp", "solve"])
    def test_a_tp_verdict_makes_26_pairings(self, tmp_path, capsys, monkeypatch, command, pairings, made):
        # det[W3 W4] and the 16 initial minors of X decide the verdict, and
        # the canonical form reads the 9 other entries of X: 26 of the 70
        # maximal minors, each one pairing of two column wedges.  Those
        # pairings and the four block ranks read 17 of the 28 wedges.
        # solve reads its forms, the eight 2x2 minors of X on rows 13, 14,
        # 23, 24, from the same table: 7 more pairings (rows 23 beside
        # columns 12 is an initial minor) and 1 more wedge.
        calls, wedges = [], []
        pair, wedge = exact.plucker_meet, exact.wedge
        monkeypatch.setattr(exact, "plucker_meet", lambda p, q: calls.append(1) or pair(p, q))
        monkeypatch.setattr(exact, "wedge", lambda s, t: wedges.append(1) or wedge(s, t))
        for seed, bound in ((0, 10), (1, 10**30)):
            path = write_obj(tmp_path, ser.blocks_to_obj(random_tp_instance(seed, bound)[1]))
            calls.clear()
            wedges.clear()
            assert run([command, "--input", path]) == 0
            assert len(calls) == pairings
            assert len(wedges) == made
        capsys.readouterr()

    def test_a_failure_makes_the_pairings_up_to_its_witness(self, tmp_path, capsys, monkeypatch):
        # negating row 1 of every block negates every maximal minor: the
        # canonical form reads det[W3 W4] < 0 and the 16 entries of X, the
        # verdict stops at det[W3 W4], and the scan at the first minor
        ws = [w.entries() for w in random_tp_instance(0)[1].blocks()]
        flipped = ConfigBlocks(*(MatQ([[-v for v in w[0]], *w[1:]]) for w in ws))
        path = write_obj(tmp_path, ser.blocks_to_obj(flipped))
        calls = []
        pair = exact.plucker_meet
        monkeypatch.setattr(exact, "plucker_meet", lambda p, q: calls.append(1) or pair(p, q))
        assert run(["check-tp", "--input", path]) == 3
        assert json.loads(capsys.readouterr().out)["witness"]["cols"] == [1, 2, 3, 4]
        assert len(calls) == 18

    def test_block_shape(self, tmp_path, capsys):
        obj = ser.blocks_to_obj(random_tp_instance(0)[1])
        obj["blocks"][0] = obj["blocks"][0][:3]
        assert run_err(["solve", "--input", write_obj(tmp_path, obj)], capsys) == (
            2, "error: blocks must be 4x2, got 3x2\n")

    def test_epsilon_beyond_the_domain(self, capsys):
        argv = ["curve-sample", "--ts", "1/10,3/10,5/10,9/10", "--epsilon", "15/100"]
        assert run_err(argv, capsys) == (
            2, "error: epsilon 3/20 pushes the last sample beyond the domain\n")

    def test_factor_recomposition_certificate(self, tmp_path, capsys, monkeypatch):
        x = totalpos.lw_compose(random_tp_instance(0)[0])
        path = write_obj(tmp_path, ser.mat_to_obj(x))
        compose = totalpos.lw_compose
        monkeypatch.setattr(totalpos, "lw_compose", lambda params: compose(params).map(lambda v: v + 1))
        with pytest.raises(NotTotallyPositive, match="^matrix is outside the positive factorization chart$"):
            totalpos.lw_factor(x)
        assert run_err(["factor", "--input", path], capsys) == (
            3, "error: matrix is outside the positive factorization chart\n")

    def test_auto_epsilon_computes_no_det(self, capsys, monkeypatch):
        calls = []
        det = MatQ.det
        monkeypatch.setattr(MatQ, "det", lambda self: calls.append(1) or det(self))
        assert run(["curve-sample", "--ts", "1/10,3/10,5/10,7/10"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert calls == []

    @pytest.mark.parametrize("quad", [(1, 0, 1), (1, 2, 1)], ids=["d<0", "d=0"])
    @pytest.mark.parametrize("config", ["random", "tangent"])
    def test_discriminant_not_positive_despite_tp(self, tmp_path, capsys, monkeypatch, quad, config):
        # total positivity implies D > 0, so only a wrong elimination reaches this guard
        if config == "random":
            blocks = random_tp_instance(0)[1]
        else:
            blocks = curves.tangent_config(curves.CurveSpec.moment(), (Fraction(1, 20), Fraction(37, 100),
                                                                       Fraction(9, 10), Fraction(49, 50)))
        assert totalpos.check_tp_config(blocks).ok
        monkeypatch.setattr(transversal, "eliminate_to_quadratic", lambda f, h: transversal.Quadratic(*quad))
        message = r"discriminant (0|-\d+(/\d+)?) not positive despite verified total positivity"
        with pytest.raises(NoRealSolution, match=f"^{message}$"):
            transversal.solve_transversals(blocks)
        code, err = run_err(["solve", "--input", write_obj(tmp_path, ser.blocks_to_obj(blocks))], capsys)
        assert code == 3 and re.fullmatch(f"error: {message}\n", err)


#: The exit codes of the README's CLI table.
README_CODES = {int(code) for code in re.findall(
    r"^\| `(\d)` \|", (Path(__file__).resolve().parent.parent / "README.md").read_text(), re.M)}


def big_literal_config(seed: int, digits: int = 199) -> dict:
    """32 literals p/q, p and q drawn from ``random.Random(seed)`` with
    ``digits`` digits each: at 199, seed 6 gives a D of 19,017 digits."""
    rng = random.Random(seed)
    lo, hi = 10 ** (digits - 1), 10**digits
    lit = lambda: f"{rng.randrange(lo, hi)}/{rng.randrange(lo, hi)}"
    return {"blocks": [[[lit(), lit()] for _ in range(4)] for _ in range(4)]}


def big_literal_matrix(seed: int) -> list:
    """A 4x4 matrix of 2,000-digit integers from ``random.Random(seed)``,
    each negative with probability 0.3."""
    rng = random.Random(seed)
    return [[("-" if rng.random() < 0.3 else "") + str(rng.randrange(10**1999, 10**2000))
             for _ in range(4)] for _ in range(4)]


def random_literal(rng: random.Random, length: int) -> str:
    """A rational literal of ``length`` characters: p or p/q, negative
    with probability 0.3."""
    sign = "-" if rng.random() < 0.3 else ""
    body = length - len(sign)
    if rng.random() < 0.5:
        return sign + str(rng.randrange(10 ** (body - 1), 10**body))
    k = rng.randrange(1, body - 1)  # digits of p; q has m = body - k - 1
    m = body - k - 1
    return f"{sign}{rng.randrange(10 ** (k - 1), 10**k)}/{rng.randrange(10 ** (m - 1), 10**m)}"


class TestPrintLimit:
    """A computed number that an error message names prints as its digit
    count past Python's print limit, and the error keeps its exit code."""

    def test_negative_discriminant_of_19017_digits(self, tmp_path, capsys):
        path = write_obj(tmp_path, big_literal_config(6))
        assert run_err(["solve", "--input", path], capsys) == (
            3, "error: negative discriminant <number of 19017 digits>\n")

    def test_recovered_parameter_of_6000_digits(self, tmp_path, capsys):
        path = write_obj(tmp_path, big_literal_matrix(1))
        assert run_err(["factor", "--input", path], capsys) == (
            3, "error: recovered parameter e = <number of 6000 digits> is not positive\n")

    def test_batch_reports_the_file_and_goes_on(self, tmp_path, capsys):
        indir, outdir = tmp_path / "batch", tmp_path / "out"
        indir.mkdir()
        (indir / "inst1.json").write_text(ser.dumps(big_literal_config(6)))
        (indir / "inst2.json").write_text(ser.dumps(ser.blocks_to_obj(random_tp_instance(2, bound=5)[1])))
        assert run(["solve", "--batch", str(indir), "--output", str(outdir)]) == 3
        assert capsys.readouterr().err == "inst1.json: negative discriminant <number of 19017 digits>\n"
        assert [p.name for p in outdir.iterdir()] == ["inst2.solution.json"]
        assert len(json.loads((outdir / "inst2.solution.json").read_text())["lines"]) == 2

    @pytest.mark.parametrize("seed, digits", [(0, 5081), (1, 5081), (2, 5084), (9, 5080)])
    def test_unprintable_x_is_refused_before_the_solve(self, tmp_path, capsys, monkeypatch, seed, digits):
        # 511-character literals: g prints and no entry of X does, so solve
        # refuses right after the canonical form, with the message that
        # printing X gives; seed 9 has D < 0, which a full solve refuses with
        # exit 3
        obj = big_literal_config(seed, 255)
        canon = totalpos.check_tp_config(ser.blocks_from_obj(obj)).canonical
        assert all(number_text(v)[0] != "<" for row in canon.g.entries() for v in row)
        assert all(number_text(v)[0] == "<" for row in canon.x.entries() for v in row)
        assert (transversal._table_chart(canon)[3].disc < 0) == (seed == 9)

        def chart(canon):
            raise AssertionError("solved a configuration whose X cannot print")

        monkeypatch.setattr(transversal, "_table_chart", chart)
        assert run_err(["solve", "--input", write_obj(tmp_path, obj)], capsys) == (
            2, f"error: an output number of {digits} digits exceeds the 4300-digit print limit\n")

    @pytest.mark.parametrize("seed, digits", [(0, 4751), (1, 4751), (2, 4749), (3, 4742), (4, 4752),
                                              (5, 4746), (7, 4754)])
    def test_unprintable_form_is_refused_before_the_lines(self, tmp_path, capsys, monkeypatch, seed, digits):
        # 399-character literals: g and X print and the first bilinear form
        # does not, so solve refuses after the checks on D and the roots and
        # builds no line, with the message that printing the form gives
        obj = big_literal_config(seed)
        canon = totalpos.check_tp_config(ser.blocks_from_obj(obj)).canonical
        assert all(number_text(v)[0] != "<" for m in (canon.g, canon.x) for row in m.entries() for v in row)

        def certify(*args):
            raise AssertionError("built the lines of a solution that cannot print")

        monkeypatch.setattr(transversal, "_certify_lines", certify)
        assert run_err(["solve", "--input", write_obj(tmp_path, obj)], capsys) == (
            2, f"error: an output number of {digits} digits exceeds the 4300-digit print limit\n")

    @pytest.mark.parametrize("seed, digits", [(0, 923), (1, 926), (2, 936)])
    def test_unprintable_discriminant_is_refused_before_the_lines(self, tmp_path, capsys, monkeypatch,
                                                                   seed, digits):
        # under a 900-digit limit a bound-10^30 instance prints g, X, the
        # forms, A, B and C, and not D
        path = write_obj(tmp_path, ser.blocks_to_obj(random_tp_instance(seed, 10**30)[1]))
        monkeypatch.setattr(transversal, "_certify_lines", None)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(900)
        try:
            assert run_err(["solve", "--input", path], capsys) == (
                2, f"error: an output number of {digits} digits exceeds the 900-digit print limit\n")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_printable_canonical_form_is_not_converted(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ser, "rat_to_str", calls.append)
        for bound in (10, 10**30, MAX_BOUND):
            transversal.solve_transversals(random_tp_instance(0, bound)[1])
        assert calls == []

    @pytest.mark.parametrize("number, text", [
        (Fraction(-476), "-476"), (Fraction(10**4299, 3), f"{10**4299}/3"),
        (10**4300, "<number of 4301 digits>"), (Fraction(-1, 10**4300), "<number of 4301 digits>"),
        (Fraction(-(10**5000) + 1, 7), "<number of 5000 digits>")],
        ids=["integer", "fraction", "int-over", "denominator-over", "numerator-over"])
    def test_number_text(self, number, text):
        assert fourlines.errors.number_text(number) == text

    @pytest.mark.parametrize("command", ["solve", "check-tp", "factor"])
    def test_long_literals_end_in_a_documented_code(self, tmp_path, capsys, command):
        # literals of 100 to 400 characters, mostly far from total
        # positivity: each run ends in a code of the README table and
        # raises nothing
        path = tmp_path / "in.json"

        @settings(derandomize=True, max_examples=10, deadline=None, database=None)
        @given(st.randoms(use_true_random=False))
        def check(rng):
            lit = lambda: random_literal(rng, rng.randint(100, 400))
            if command == "factor":
                obj = [[lit() for _ in range(4)] for _ in range(4)]
            else:
                obj = {"blocks": [[[lit(), lit()] for _ in range(4)] for _ in range(4)]}
            path.write_text(json.dumps(obj))
            assert run([command, "--input", str(path)]) in README_CODES
            capsys.readouterr()

        check()


#: ``vars(parse_args(argv))`` for the shortest argv of each subcommand: the
#: options each one takes, with their defaults.
PARSED = {
    ("check-tp", "--input", "I"): {"command": "check-tp", "input": "I", "output": None, "format": "json"},
    ("factor", "--input", "I"): {"command": "factor", "input": "I", "output": None, "format": "json"},
    ("solve",): {"command": "solve", "input": None, "output": None, "batch": None, "format": "json"},
    ("verify-identity",): {"command": "verify-identity", "spots": 5, "seed": 0,
                           "output": None, "format": "json"},
    ("curve-sample", "--ts", "T"): {"command": "curve-sample", "ts": "T", "epsilon": "auto", "curve": None,
                                    "output": None, "format": "json"},
    ("schubert-count", "--k", "1", "--n", "3"): {"command": "schubert-count", "k": 1, "n": 3},
    ("convexity-check",): {"command": "convexity-check", "curve": None, "grid": 12,
                           "output": None, "format": "json"},
    ("random-instance", "--seed", "7"): {"command": "random-instance", "seed": 7, "bound": 10,
                                         "output": None},
}


class TestSurface:
    @pytest.mark.parametrize("argv", sorted(PARSED))
    def test_parsed_arguments(self, argv):
        assert vars(_build_parser().parse_args(argv)) == PARSED[argv]

    @pytest.mark.parametrize("argv", [
        ["schubert-count", "--k", "1", "--n", "3", "--output", "out.json"],
        ["schubert-count", "--k", "1", "--n", "3", "--format", "json"],
        ["random-instance", "--seed", "7", "--format", "json"],
    ])
    def test_options_a_command_does_not_take(self, capsys, argv):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_text_format_spells_json_literals(self, tmp_path, capsys):
        inp = tmp_path / "cfg.json"
        write_x1_config(inp)
        assert run(["check-tp", "--input", str(inp), "--format", "text"]) == 0
        assert capsys.readouterr().out == "ok: true\nwitness: null\n"
        assert run(["curve-sample", "--ts", "1/10,3/10,5/10,7/10", "--format", "text"]) == 0
        assert capsys.readouterr().out.endswith("\nok: true\n")
        assert run(["convexity-check", "--grid", "8", "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "frenet_degenerate: false" in lines and "ok: true" in lines

    def test_readme_exit_codes_are_the_error_classes(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = re.findall(r"^\| `(\d)` \| [^|]+ \| (.+) \|$", readme, re.M)
        named = {name: int(code) for code, errors in rows for name in re.findall(r"`(\w+)`", errors)}
        assert {name: getattr(fourlines, name).exit_code for name in named} == named
        # every class that sets its own code is in the table
        assert {name for name, cls in vars(fourlines.errors).items()
                if isinstance(cls, type) and "exit_code" in vars(cls)} <= named.keys()
