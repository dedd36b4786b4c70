import json
import time
from fractions import Fraction

import pytest

from fourlines import (
    CertificateFailure,
    ConfigBlocks,
    MatQ,
    SingularMatrixError,
    Y_SIGN,
    blocks_of_canonical,
    random_tp_instance,
)
from fourlines import curves, transversal
from fourlines.curves import MAX_CURVE_COEFFS, MAX_CURVE_LITERAL, MAX_GRID, MAX_SCHUBERT_N, lemma_sample
from fourlines.exact import maximal_minors
from fourlines.identity import MAX_SPOTS
from fourlines.totalpos import MAX_BOUND
from fourlines import serialize as ser
from fourlines.cli import run

from conftest import X1_ENTRIES, swap_w3_columns


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

        def counted_minors(m):
            tables.append(m)
            return maximal_minors(m)

        monkeypatch.setattr(curves, "lemma_sample", counted)
        monkeypatch.setattr(curves, "maximal_minors", counted_minors)
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
        # the refusal reads the failed sample's own minors: one table in all
        assert len(tables) == 1

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
