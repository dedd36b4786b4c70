import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourlines import (
    ConfigBlocks,
    CurveSpec,
    DegenerateConfiguration,
    DomainError,
    FourLinesError,
    InputError,
    MatQ,
    NotConvex,
    SearchFailure,
    check_tp_config,
    convexity_sample_check,
    curve_eval,
    epsilon_threshold,
    frenet_basis,
    kappa_of,
    lemma_sample,
    oracle_plucker_solve,
    plucker_meet,
    plucker_of_span,
    schubert_count,
    solve_transversals,
    tangent_block,
    tangent_config,
)
from fourlines import curves
from fourlines import serialize as ser
from fourlines.cli import run
from fourlines.curves import POLYNOMIAL

from conftest import (det_cofactor, frame_pairs, frenet_frames, late, lift_pairs, sample_constants,
                      sample_oracle)

TS = (Fraction(1, 10), Fraction(3, 10), Fraction(5, 10), Fraction(7, 10))


def poly_curve(*components) -> CurveSpec:
    return CurveSpec(kind=POLYNOMIAL, components=tuple(tuple(map(Fraction, c)) for c in components))


def quartic(c) -> CurveSpec:
    """The lift (1, t, t^2, t^3 + c t^4): convex on [0, 1] for c >= -1/4."""
    return poly_curve((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1, c))


class TestCurveEval:
    def test_moment_values(self):
        c = CurveSpec.moment()
        half = Fraction(1, 2)
        assert curve_eval(c, half, 0) == (1, half, Fraction(1, 4), Fraction(1, 8))
        assert curve_eval(c, half, 1) == (0, 1, 1, Fraction(3, 4))
        assert curve_eval(c, half, 2) == (0, 0, 2, 3)
        assert curve_eval(c, half, 3) == (0, 0, 0, 6)

    def test_domain_checks(self):
        c = CurveSpec.moment()
        with pytest.raises(InputError):
            curve_eval(c, 2)
        with pytest.raises(InputError):
            curve_eval(c, Fraction(-1, 2))
        with pytest.raises(InputError):
            curve_eval(c, Fraction(1, 2), order=4)

    def test_bad_kind(self):
        with pytest.raises(InputError):
            CurveSpec(kind="circle")


class TestFrenet:
    def test_moment_basis_is_diagonal(self):
        fb = frenet_basis(CurveSpec.moment())
        assert fb == MatQ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, Fraction(1, 2), 0], [0, 0, 0, Fraction(1, 6)]])

    def test_degenerate(self):
        flat = poly_curve((1,), (0, 1), (0, 0, 1), (0, 0, 1))
        with pytest.raises(NotConvex):
            frenet_basis(flat)

    def test_tangent_block_at_zero(self):
        blk = tangent_block(CurveSpec.moment(), 0)
        assert blk == MatQ([[1, 0], [0, 1], [0, 0], [0, 0]])

    def test_tangent_block_columns(self):
        c = CurveSpec.moment()
        fb = frenet_basis(c)
        t = Fraction(2, 5)
        blk = tangent_block(c, t)
        assert blk.col(0) == (fb @ MatQ.from_cols([curve_eval(c, t, 0)])).col(0)
        assert blk.col(1) == (fb @ MatQ.from_cols([curve_eval(c, t, 1)])).col(0)

    def test_tangent_block_cusp(self):
        # (1/2 - t) * (1, t, t^2, t^3): the lift vanishes at t = 1/2, so its
        # value and derivative there are dependent
        half = Fraction(1, 2)
        c = poly_curve((half, -1), (0, half, -1), (0, 0, half, -1), (0, 0, 0, half, -1))
        with pytest.raises(DegenerateConfiguration,
                           match=re.escape("cusp at t = 1/2: value and derivative dependent")):
            tangent_block(c, half)
        assert tangent_block(c, Fraction(1, 4)).rank() == 2


#: Curve components with ``zero`` as the zero polynomial in the first
#: component (a degenerate moment curve), or in all four.
ZERO_COMPONENTS = {"one": lambda zero: [zero, ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]],
                   "four": lambda zero: [zero] * 4}


class TestEmptyComponent:
    """A component [] is the zero polynomial, as ["0"] is."""

    @staticmethod
    def outcomes(tmp_path, capsys, components) -> list:
        """(exit code, stdout, stderr) of each curve command, then each
        value or error of ``curve_eval`` and ``tangent_block``."""
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"kind": "polynomial", "components": components}))
        found = []
        for argv in (["curve-sample", "--ts", "1/10,3/10,5/10,7/10"],
                     ["curve-sample", "--ts", "1/10,3/10,5/10,7/10", "--epsilon", "1/20"],
                     ["convexity-check", "--grid", "4"], ["convexity-check"]):
            found.append((run([*argv, "--curve", str(path)]), *capsys.readouterr()))
        curve = ser.curve_spec_from_obj(json.loads(path.read_text()))
        t = Fraction(1, 3)
        calls = [lambda o=o: curve_eval(curve, t, o) for o in range(4)] + [lambda: tangent_block(curve, t)]
        for call in calls:
            try:
                found.append(call())
            except FourLinesError as exc:
                found.append((type(exc), str(exc)))
        return found

    @pytest.mark.parametrize("where", sorted(ZERO_COMPONENTS))
    def test_empty_is_zero(self, tmp_path, capsys, where):
        empty = self.outcomes(tmp_path, capsys, ZERO_COMPONENTS[where]([]))
        assert empty == self.outcomes(tmp_path, capsys, ZERO_COMPONENTS[where](["0"]))
        refusal = "derivative vectors at t = 0 are linearly dependent"
        assert empty[0] == empty[1] == (3, "", f"error: {refusal}\n")
        assert all(code == 3 and '"frenet_degenerate": true' in out for code, out, _ in empty[2:4])
        assert empty[-1] == (NotConvex, refusal)


class TestKappa:
    def test_values(self):
        assert kappa_of((1, 2, 3, 4)) == 2
        assert kappa_of((1, 3, 5, 7)) == 0
        assert kappa_of((1, 2, 5, 6)) == 2
        assert kappa_of((2, 3, 4, 5)) == 1


class TestLemmaSample:
    def test_reference_sampling(self):
        rep = lemma_sample(CurveSpec.moment(), TS, Fraction(1, 20))
        assert rep.ok
        assert rep.w.rows == 8 and rep.w.cols == 4
        assert len(rep.minors) == 70
        assert all(v > 0 for _, v in rep.minors)
        assert sorted(set(rep.kappas)) == [0, 1, 2]

    def test_sample_rows(self):
        c = CurveSpec.moment()
        eps = Fraction(1, 20)
        rep = lemma_sample(c, TS, eps)
        fb = frenet_basis(c)
        for idx, t in enumerate(TS):
            val = (fb @ MatQ.from_cols([curve_eval(c, t, 0)])).col(0)
            der = (fb @ MatQ.from_cols([curve_eval(c, t, 1)])).col(0)
            assert rep.w.row(2 * idx) == val
            assert rep.w.row(2 * idx + 1) == tuple(a + eps * b for a, b in zip(val, der))

    def test_validation(self):
        c = CurveSpec.moment()
        with pytest.raises(InputError):
            lemma_sample(c, (Fraction(1, 10),) * 4, Fraction(1, 100))
        with pytest.raises(InputError):
            lemma_sample(c, TS, Fraction(0))
        with pytest.raises(InputError):
            lemma_sample(c, TS, Fraction(1, 4))  # collides with the next sample
        with pytest.raises(InputError):
            lemma_sample(c, (Fraction(1, 10), Fraction(3, 10), Fraction(5, 10), Fraction(11, 10)), Fraction(1, 100))
        with pytest.raises(InputError):
            lemma_sample(c, TS[:3], Fraction(1, 100))


class TestEpsilonThreshold:
    def test_reference_value(self):
        assert epsilon_threshold(CurveSpec.moment(), TS) == Fraction(1, 20)

    def test_certifies(self):
        ts = (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7), Fraction(6, 7))
        eps = epsilon_threshold(CurveSpec.moment(), ts)
        assert lemma_sample(CurveSpec.moment(), ts, eps).ok

    def test_search_failure(self, monkeypatch):
        # a search that runs out of halvings says so
        monkeypatch.setattr(curves, "MAX_HALVINGS", 0)
        with pytest.raises(SearchFailure, match="^no certifying epsilon found after 0 halvings$"):
            epsilon_threshold(CurveSpec.moment(), TS)


def halving_oracle(curve, ts, frames) -> tuple:
    """Every halving of the epsilon search, each through ``lemma_sample``:
    the reports tried, and the certifying one or None."""
    gaps = [ts[i + 1] - ts[i] for i in range(3)] + [1 - ts[3]]
    eps, tried = min(gaps) / 4, []
    for _ in range(curves.MAX_HALVINGS):
        tried.append(lemma_sample(curve, ts, eps, frames=frames))
        if tried[-1].ok:
            return tried, tried[-1]
        eps /= 2
    return tried, None


def search(curve, ts, frames, tried) -> tuple:
    """The library search on ``frames`` (in place of ``curves._frames``): its
    report or its SearchFailure, and the epsilons it passed to
    ``lemma_sample``.  That function is pure, so each epsilon the oracle
    tried is answered with the oracle's report.  No held report is reused,
    and the report of this search is not kept for another."""
    known = {rep.epsilon: rep for rep in tried}
    calls = []

    def counted(*args, **kwargs):
        assert args[:2] == (curve, ts) and kwargs == {"frames": frames}
        calls.append(args[2])
        return known.get(args[2]) or lemma_sample(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "lemma_sample", counted)
        mp.setattr(curves, "_frames", lambda *args: frames)
        mp.setattr(curves, "_last_certified", None)
        try:
            return curves._certifying_sample(curve, ts), calls
        except SearchFailure as exc:
            return exc, calls


def epsilon_free(rows) -> bool:
    """No lone even row: each even row 2k of I comes with 2k - 1."""
    return all(r - 1 in rows for r in rows if r % 2 == 0)


def assert_search_matches_oracle(curve, ts, frames) -> None:
    tried, certified = halving_oracle(curve, ts, frames)
    report, calls = search(curve, ts, frames, tried)
    constants = sample_constants(frenet_frames(curve, frame_pairs(frames)))
    if certified is None:
        # the refusal names a sample minor I with P_I(0) <= 0, its kappa_I and the sign
        witness = re.fullmatch(r"no certifying epsilon: sample minor \{([1-8,]+)\} is eps\^(\d) "
                               r"\* P\(eps\) with P\(0\) (< 0|= 0), and P <= 0 on \(0, (\S+)\]",
                               str(report))
        assert witness is not None, str(report)
        rows = tuple(int(r) for r in witness[1].split(","))
        k = [tuple(r) for r in curves._SAMPLE_ROWS].index(rows)
        assert int(witness[2]) == kappa_of(rows)
        assert witness[3] == ("< 0" if constants[k] < 0 else "= 0") and constants[k] <= 0
        # and it is the first such I, which is eps-free
        assert k == next(j for j, c in enumerate(constants) if c <= 0)
        assert Fraction(witness[4]) == tried[0].epsilon / 2
    else:
        assert (report.epsilon, report.minors) == (certified.epsilon, certified.minors)
    assert calls == [rep.epsilon for rep in tried[:1 if certified is None else len(tried)]]
    # each eps-free sample minor is eps^kappa_I * P_I(0) at every epsilon the search tried
    for rep in tried[:len(calls)]:
        eps = rep.epsilon
        assert all(m == eps**k * c for (rows, m), k, c in zip(rep.minors, rep.kappas, constants)
                   if epsilon_free(tuple(rows)))
    # a certifying epsilon exists iff every P_I(0) > 0 (each P_I(0) is the c
    # of an eps-free row set), so the search either certifies or refuses
    # before its second halving
    assert (certified is None) == any(c <= 0 for c in constants)


#: The (curve, ts) of the golden ``curve-sample`` commands.
GOLDEN_SEARCHES = {
    "moment": (CurveSpec.moment(), TS),
    "quartic-1/10": (quartic(Fraction(-1, 10)), tuple(Fraction(k, 100) for k in (3, 21, 47, 88))),
    "quartic-1/4": (quartic(Fraction(-1, 4)), TS),
    "quartic-1": (quartic(-1), tuple(Fraction(k, 10) for k in (1, 3, 5, 9))),
}
#: Seeded sweep: name -> (curve, whether sum(ts) <= 1 or None for either, examples).
SWEEP = {
    "moment": (CurveSpec.moment(), None, 60),
    "quartic-1/10": (quartic(Fraction(-1, 10)), None, 60),
    "quartic-1/4": (quartic(Fraction(-1, 4)), None, 60),
    "quartic-1-sum-le-1": (quartic(-1), True, 30),
    "quartic-1-sum-gt-1": (quartic(-1), False, 30),
}
#: Halvings in the seeded sweep: the oracle spends them all on each refused
#: case, over a millisecond apiece.  The library search refuses before its
#: second halving or never, so a deeper oracle only repeats the golden check.
SWEEP_HALVINGS = 2


def frames_of(curve, ts) -> curves._Frames:
    return curves._frames(curve, ts)


def late_frames() -> curves._Frames:
    """Moment-curve frames at TS with d_1 replaced by d_1 - 100 v_1 (``late``).

    The lone sample row 2 becomes (1 - 100 eps) v_1 + eps d_1, whose v_1
    part is negative while eps > 1/100: eps0 = 1/20 and its next two
    halvings fail.  Every P_I(0) stays positive, so the search must go on
    to eps0/8 = 1/160, where the row is a positive multiple of
    v_1 + (1/60) d_1 and the sample certifies.
    """
    return late(frames_of(CurveSpec.moment(), TS))


@st.composite
def hundredths_summing_to_at_most_1(draw):
    k4 = draw(st.integers(4, 94))
    k3 = draw(st.integers(3, min(k4 - 1, 97 - k4)))
    k2 = draw(st.integers(2, min(k3 - 1, 99 - k4 - k3)))
    k1 = draw(st.integers(1, min(k2 - 1, 100 - k4 - k3 - k2)))
    return (k1, k2, k3, k4)


def hundredths(small_sum):
    """Strictly increasing k/100, optionally with sum(ts) <= 1 or > 1."""
    if small_sum:
        ks = hundredths_summing_to_at_most_1()
    else:
        ks = st.lists(st.integers(1, 99), min_size=4, max_size=4, unique=True).map(sorted)
        if small_sum is not None:
            ks = ks.filter(lambda k: sum(k) > 100)
    return ks.map(lambda k: tuple(Fraction(x, 100) for x in k))


class TestEpsilonSearch:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SEARCHES))
    def test_golden_matches_oracle(self, name):
        curve, ts = GOLDEN_SEARCHES[name]
        assert_search_matches_oracle(curve, ts, frames_of(curve, ts))

    def test_certifies_after_halvings(self):
        frames = late_frames()
        assert_search_matches_oracle(CurveSpec.moment(), TS, frames)
        report, _ = search(CurveSpec.moment(), TS, frames, [])
        assert report.epsilon == Fraction(1, 160)

    @pytest.mark.parametrize("name", sorted(SWEEP))
    def test_seeded_matches_oracle(self, name):
        curve, small_sum, examples = SWEEP[name]

        @settings(derandomize=True, max_examples=examples, deadline=None, database=None)
        @given(hundredths(small_sum))
        def check(ts):
            assert_search_matches_oracle(curve, ts, curves._frames(curve, ts))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curves, "MAX_HALVINGS", SWEEP_HALVINGS)
            check()

    @pytest.mark.parametrize("name", sorted(SWEEP))
    def test_epsilon_free_minors_scale_by_kappa(self, name):
        # the invariant the refusal rests on: an eps-free sample minor over
        # eps^kappa_I does not depend on eps, whether or not eps certifies
        curve, small_sum, _ = SWEEP[name]

        @settings(derandomize=True, max_examples=12, deadline=None, database=None)
        @given(hundredths(small_sum))
        def check(ts):
            frames = curves._frames(curve, ts)
            eps0 = min([b - a for a, b in zip(ts, ts[1:])] + [1 - ts[3]]) / 4
            reports = [lemma_sample(curve, ts, eps0 / 2**j, frames=frames) for j in range(4)]
            for k, rows in enumerate(curves._SAMPLE_ROWS):
                if epsilon_free(tuple(rows)):
                    assert len({rep.minors[k][1] / rep.epsilon**rep.kappas[k] for rep in reports}) == 1

        check()


#: A convex-looking curve with non-integer coefficients and det W0 = 4.
RATIONAL_CURVE = poly_curve((1, Fraction(1, 3)), (0, Fraction(1, 2), Fraction(-1, 5)),
                            (0, 0, Fraction(2, 3), Fraction(1, 7)), (0, 0, 0, 1, Fraction(-1, 10)))
#: The distinct SWEEP curves and the rational one.
ORACLE_CURVES = {"moment": CurveSpec.moment(), "quartic-1/10": quartic(Fraction(-1, 10)),
                 "quartic-1/4": quartic(Fraction(-1, 4)), "quartic-1": quartic(-1),
                 "rational": RATIONAL_CURVE}


def linear_image(curve, a) -> CurveSpec:
    """The lift A * gamma: component j is sum_l A[j][l] * gamma_l."""
    n = max(map(len, curve.components))
    comps = [comp + (0,) * (n - len(comp)) for comp in curve.components]
    return CurveSpec(kind=POLYNOMIAL, components=tuple(
        tuple(sum(a[j][l] * comps[l][i] for l in range(4)) for i in range(n)) for j in range(4)))


@st.composite
def orientation_reversing(draw):
    """A rational 4x4 matrix A with det A < 0."""
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    a = draw(st.lists(st.lists(entry, min_size=4, max_size=4), min_size=4, max_size=4)
             .filter(lambda rows: MatQ(rows).det() != 0))
    return a if MatQ(a).det() < 0 else [a[1], a[0], *a[2:]]


def search_outcome(curve, ts):
    try:
        return curves._certifying_sample(curve, ts)
    except SearchFailure as exc:
        return str(exc)


class TestOldDefinition:
    """The search runs on integers in curve coordinates; its reports are the
    sample as defined in the Frenet basis."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
    def test_reports_match_old_definition(self, name):
        curve = ORACLE_CURVES[name]

        @settings(derandomize=True, max_examples=12, deadline=None, database=None)
        @given(hundredths(None))
        def check(ts):
            pairs = lift_pairs(curve, ts)
            assert frame_pairs(curves._frames(curve, ts)) == pairs
            eps0 = min([b - a for a, b in zip(ts, ts[1:])] + [1 - ts[3]]) / 4
            for eps in (eps0, eps0 / 2, eps0 / 8):
                assert lemma_sample(curve, ts, eps) == sample_oracle(curve, ts, eps, pairs)
            outcome = search_outcome(curve, ts)
            if isinstance(outcome, str):
                assert "no certifying epsilon" in outcome
            else:
                assert outcome == sample_oracle(curve, ts, outcome.epsilon, pairs)
            assert tangent_block(curve, ts[0]) == MatQ.from_cols(frenet_frames(curve, pairs[:1])[0])

        check()

    @pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
    def test_orientation_reversing_image_gives_the_same_report(self, name):
        # A * gamma has Wronskian A * W0 and Frenet basis W0^-1 A^-1, so every
        # Frenet-coordinate output is A's; det A < 0 flips det W0 and the
        # sign of every integer curve-coordinate minor
        curve = ORACLE_CURVES[name]

        @settings(derandomize=True, max_examples=8, deadline=None, database=None)
        @given(hundredths(None), orientation_reversing())
        def check(ts, a):
            image = linear_image(curve, a)
            assert curves._frames(image, ts).det_w0 < 0 < curves._frames(curve, ts).det_w0
            assert search_outcome(image, ts) == search_outcome(curve, ts)
            assert lemma_sample(image, ts, Fraction(1, 10**4)) == lemma_sample(curve, ts, Fraction(1, 10**4))
            assert tangent_block(image, ts[1]) == tangent_block(curve, ts[1])
            assert convexity_sample_check(image, 7) == convexity_sample_check(curve, 7)

        check()


def tangent_blocks(curve, ts) -> ConfigBlocks:
    """The (value, derivative) blocks of the four tangent lines."""
    return ConfigBlocks(*(tangent_block(curve, t) for t in ts))


def assert_certified_tangent_config(curve, ts) -> None:
    """tangent_config is the certified sample: block k is rows 2k-1 and 2k
    of its W and spans the tangent plane at t_k, the configuration is TP,
    and it solves with no warning, D > 0 and the lines of the (value,
    derivative) blocks."""
    cfg = tangent_config(curve, ts)
    report = curves._certifying_sample(curve, ts)
    plain = tangent_blocks(curve, ts)
    for k, (blk, tb) in enumerate(zip(cfg.blocks(), plain.blocks())):
        assert blk == MatQ.from_cols([report.w.row(2 * k), report.w.row(2 * k + 1)])
        # (v, v + eps d) = (v, d) [[1, 1], [0, eps]]: the same plane
        assert plucker_of_span(blk) == tuple(report.epsilon * p for p in plucker_of_span(tb))
    assert check_tp_config(cfg).ok
    sol = solve_transversals(cfg)
    assert sol.warnings == () and sol.quadratic.disc > 0
    lines = solve_transversals(plain).lines
    assert all(any(ln.same_line(other) for other in lines) for ln in sol.lines)


class TestTangentConfig:
    def test_blocks_are_tangent_lines(self):
        assert_certified_tangent_config(CurveSpec.moment(), TS)

    def test_transversals_of_tangent_lines(self):
        cfg = tangent_config(CurveSpec.moment(), TS)
        sol = solve_transversals(cfg)
        assert sol.warnings == ()
        oracle = oracle_plucker_solve(cfg)
        assert len(sol.lines) == len(oracle) == 2
        for ln in sol.lines:
            assert any(ln.same_line(o) for o in oracle)

    def test_value_derivative_basis_is_not_tp(self):
        # the exact (value, derivative) basis of the same lines is not
        # totally positive, so the solver flags the unverified hypothesis
        # but still produces both real transversals
        cfg = tangent_blocks(CurveSpec.moment(), TS)
        assert not check_tp_config(cfg).ok
        sol = solve_transversals(cfg)
        assert "hypothesis-not-verified" in sol.warnings
        oracle = oracle_plucker_solve(cfg)
        assert len(sol.lines) == len(oracle) == 2
        for ln in sol.lines:
            assert any(ln.same_line(o) for o in oracle)

    @pytest.mark.parametrize("name", ["moment", "quartic-1/10", "quartic-1/4"])
    def test_certified_on_convex_curves(self, name):
        # the paper's statement on its own example: four tangent lines of a
        # convex curve, given by the certified sample, are totally positive
        # and have two real transversals
        curve = SWEEP[name][0]

        @settings(derandomize=True, max_examples=25, deadline=None, database=None)
        @given(hundredths(None))
        def check(ts):
            assert_certified_tangent_config(curve, ts)

        check()

    def test_refused_on_non_convex_quartic(self):
        # the search refuses most ts on the quartic c = -1, and tangent_config
        # with it; the few it certifies keep every fact above
        curve, seen = quartic(-1), []

        @settings(derandomize=True, max_examples=25, deadline=None, database=None)
        @given(hundredths(None))
        def check(ts):
            try:
                epsilon_threshold(curve, ts)
            except SearchFailure:
                seen.append(True)
                with pytest.raises(SearchFailure):
                    tangent_config(curve, ts)
            else:
                seen.append(False)
                assert_certified_tangent_config(curve, ts)

        check()
        assert True in seen and False in seen


def quartic_file(tmp_path, c) -> str:
    """A curve spec file of ``quartic(c)``."""
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps({"kind": "polynomial", "components": [
        ["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1", str(Fraction(c))]]}))
    return str(path)


class TestCertifiedHandOff:
    """``curve-sample --epsilon auto`` then ``tangent_config`` on the same
    curve and ts run one search; a held report is reused at most once."""

    C, TS_TEXT = Fraction(-1, 10), "3/100,21/100,47/100,88/100"

    @pytest.fixture
    def counts(self, monkeypatch) -> dict:
        """Calls of ``lemma_sample`` and ``frenet_basis``.  A search makes
        one ``frenet_basis`` call, and on (quartic(C), TS_TEXT) one
        ``lemma_sample`` call: its first epsilon certifies."""
        counts = {}
        for name in ("lemma_sample", "frenet_basis"):
            def counted(*args, _fn=getattr(curves, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            counts[name] = 0
            monkeypatch.setattr(curves, name, counted)
        return counts

    @staticmethod
    def searches(n) -> dict:
        return {"lemma_sample": n, "frenet_basis": n}

    def curve_sample(self, path, capsys) -> str:
        assert run(["curve-sample", "--ts", self.TS_TEXT, "--epsilon", "auto", "--curve", path]) == 0
        return capsys.readouterr().out

    def ts(self):
        return tuple(Fraction(t) for t in self.TS_TEXT.split(","))

    def test_curve_sample_then_tangent_config_search_once(self, tmp_path, capsys, counts):
        path = quartic_file(tmp_path, self.C)
        text = self.curve_sample(path, capsys)
        curve = ser.curve_spec_from_obj(json.loads(open(path).read()))
        cfg = tangent_config(curve, self.ts())
        assert counts == self.searches(1)
        # the same blocks as a tangent_config with nothing held, which searches
        assert curves._last_certified is None
        assert tangent_config(curve, self.ts()).blocks() == cfg.blocks()
        assert counts == self.searches(2)
        # and the same curve-sample output whether or not the held report is used
        assert self.curve_sample(path, capsys) == text
        assert counts == self.searches(2)

    def test_a_repeated_pair_searches_twice(self, tmp_path, capsys, counts):
        path = quartic_file(tmp_path, self.C)
        for _ in range(2):
            self.curve_sample(path, capsys)
            tangent_config(quartic(self.C), self.ts())
        assert counts == self.searches(2)

    @pytest.mark.parametrize("other", ["ts", "curve"])
    def test_another_search_in_between_is_not_reused(self, tmp_path, capsys, counts, other):
        self.curve_sample(quartic_file(tmp_path, self.C), capsys)
        if other == "ts":
            tangent_config(quartic(self.C), TS)
        else:
            tangent_config(quartic(Fraction(-1, 4)), self.ts())
        assert counts["frenet_basis"] == 2
        tangent_config(quartic(self.C), self.ts())
        assert counts["frenet_basis"] == 3

    def test_ts_match_by_value(self, capsys, counts):
        assert run(["curve-sample", "--ts", "1/10,3/10,1/2,7/10", "--epsilon", "auto"]) == 0
        capsys.readouterr()
        tangent_config(CurveSpec.moment(), (Fraction(1, 10), Fraction(3, 10), Fraction(2, 4), Fraction(7, 10)))
        assert counts == self.searches(1)

    def test_a_refused_search_leaves_nothing_to_reuse(self, tmp_path, capsys, counts):
        # the golden refused case refuses after its first lemma_sample
        argv = ["curve-sample", "--ts", "1/10,3/10,5/10,9/10", "--epsilon", "auto",
                "--curve", quartic_file(tmp_path, -1)]
        assert run(argv) == 3
        message = capsys.readouterr().err.removeprefix("error: ").rstrip("\n")
        assert message.startswith("no certifying epsilon: sample minor {1,2,3,5}")
        assert curves._last_certified is None
        with pytest.raises(SearchFailure) as exc:
            tangent_config(quartic(-1), tuple(Fraction(k, 10) for k in (1, 3, 5, 9)))
        assert str(exc.value) == message
        assert counts == self.searches(2)

    def test_a_fixed_epsilon_neither_fills_nor_empties(self, tmp_path, capsys, counts):
        path = quartic_file(tmp_path, self.C)
        fixed = ["curve-sample", "--ts", self.TS_TEXT, "--epsilon", "1/1000", "--curve", path]
        assert run(fixed) == 0
        assert curves._last_certified is None
        self.curve_sample(path, capsys)
        held = curves._last_certified
        assert held is not None
        assert run(fixed) == 0
        lemma_sample(quartic(self.C), TS, Fraction(1, 100))
        assert curves._last_certified is held
        searched = dict(counts)
        tangent_config(quartic(self.C), self.ts())
        assert counts == searched and curves._last_certified is None


class TestConvexitySample:
    def test_moment_curve(self):
        rep = convexity_sample_check(CurveSpec.moment(), 6)
        assert rep.ok
        assert rep.verdict == "sampled-consistent"
        assert not rep.frenet_degenerate
        assert rep.failures == ()

    def test_degenerate_frenet_flagged(self):
        c = poly_curve((1,), (0, 1), (0, 0, 1), (0, 0, 0, 0, 1))
        assert curves._det_w0(c) == 0
        rep = convexity_sample_check(c, 5)
        assert rep.frenet_degenerate
        assert not rep.ok

    @pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
    def test_det_w0_is_one_over_det_of_the_frenet_basis(self, name):
        # A swaps two components, so A * gamma has det W0 of the other sign
        curve = ORACLE_CURVES[name]
        swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        for c in (curve, linear_image(curve, swap)):
            assert curves._frames(c, TS).det_w0 == 1 / frenet_basis(c).det()
        assert curves._frames(linear_image(curve, swap), TS).det_w0 < 0 < curves._frames(curve, TS).det_w0

    @pytest.mark.parametrize("components, sign", [
        (((2, "1/3", -1), ("1/2", 3), (0, 1, "2/5", 1), (1, 0, -3, "1/7", 2)), 1),
        ((("1/2", 3), (2, "1/3", -1), (0, 1, "2/5", 1), (1, 0, -3, "1/7", 2)), -1),
        # component 4 is component 1 plus component 3
        (((1, 1), (0, 1, 1), (0, 0, 1, 1), (1, 1, 1, 1)), 0),
    ], ids=["positive", "negative", "zero"])
    def test_det_w0_matches_the_cofactor_oracle(self, components, sign):
        curve = poly_curve(*components)
        w0 = MatQ.from_cols([curve_eval(curve, 0, order) for order in range(4)])
        det = det_cofactor(w0)
        assert curves._det_w0(curve) == det and (det > 0) - (det < 0) == sign

    def test_convexity_check_inverts_nothing(self, capsys, monkeypatch):
        calls = []
        inverse = MatQ.inverse
        monkeypatch.setattr(MatQ, "inverse", lambda self: calls.append(1) or inverse(self))
        assert run(["convexity-check", "--grid", "6"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert calls == []

    def test_non_convex_witnessed(self):
        # fourth divided differences of t^3 - 5 t^4 turn negative once the
        # four grid points sum past 1/5
        c = poly_curve((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1, -5))
        rep = convexity_sample_check(c, 6)
        assert not rep.ok
        assert rep.verdict == "not-convex-witnessed"
        assert rep.failures
        assert not rep.frenet_degenerate

    def test_small_grid_rejected(self):
        with pytest.raises(InputError):
            convexity_sample_check(CurveSpec.moment(), 3)


class TestSchubert:
    def test_lines_in_p3(self):
        assert schubert_count(1, 3) == 2

    def test_catalan_like_values(self):
        assert schubert_count(2, 5) == 42
        assert schubert_count(0, 7) == 1

    def test_duality(self):
        for n in range(2, 8):
            for k in range(n):
                assert schubert_count(k, n) == schubert_count(n - k - 1, n)

    def test_domain(self):
        with pytest.raises(DomainError):
            schubert_count(3, 3)
        with pytest.raises(DomainError):
            schubert_count(-1, 3)
