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
from fourlines.curves import POLYNOMIAL

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
    """The library search: its report or its SearchFailure, and the epsilons it passed to
    ``lemma_sample``.  That function is pure, so each epsilon the oracle
    tried is answered with the oracle's report."""
    known = {rep.epsilon: rep for rep in tried}
    calls = []

    def counted(*args, **kwargs):
        assert args[:2] == (curve, ts) and kwargs == {"frames": frames}
        calls.append(args[2])
        return known.get(args[2]) or lemma_sample(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "lemma_sample", counted)
        try:
            return curves._certifying_sample(curve, ts, frames), calls
        except SearchFailure as exc:
            return exc, calls


def horner(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def assert_search_matches_oracle(curve, ts, frames) -> None:
    tried, certified = halving_oracle(curve, ts, frames)
    report, calls = search(curve, ts, frames, tried)
    polys = curves._epsilon_polynomials(frames)
    if certified is None:
        # the refusal names a sample minor I with P_I(0) <= 0, its kappa_I and the sign
        witness = re.fullmatch(r"no certifying epsilon: sample minor \{([1-8,]+)\} is eps\^(\d) "
                               r"\* P\(eps\) with P\(0\) (< 0|= 0), and P <= 0 on \(0, (\S+)\]",
                               str(report))
        assert witness is not None, str(report)
        rows = tuple(int(r) for r in witness[1].split(","))
        k = [tuple(r) for r in curves._SAMPLE_ROWS].index(rows)
        assert int(witness[2]) == kappa_of(rows)
        assert witness[3] == ("< 0" if polys[k][0] < 0 else "= 0") and polys[k][0] <= 0
        assert Fraction(witness[4]) == tried[0].epsilon / 2
    else:
        assert (report.epsilon, report.minors) == (certified.epsilon, certified.minors)
    assert calls == [rep.epsilon for rep in tried[:1 if certified is None else len(tried)]]
    # P_I(eps) * eps^kappa_I is the sample minor at every epsilon the search tried
    for rep in tried[:len(calls)]:
        eps = rep.epsilon
        assert [horner(p, eps) * eps**k for p, k in zip(polys, rep.kappas)] == [m for _, m in rep.minors]
    # a certifying epsilon exists iff every P_I(0) > 0 (the constant term of
    # P_I is itself a sample minor free of epsilon), so the search either
    # certifies or refuses before its second halving
    assert (certified is None) == any(p[0] <= 0 for p in polys)


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


def frames_of(curve, ts) -> tuple:
    return curves._frames(curve, ts, frenet_basis(curve))


def late_frames() -> tuple:
    """Moment-curve frames at TS with d_1 replaced by d_1 - 100 v_1.

    The lone sample row 2 becomes (1 - 100 eps) v_1 + eps d_1, whose v_1
    part is negative while eps > 1/100: eps0 = 1/20 and its next two
    halvings fail.  Every P_I(0) stays positive, so the search must go on
    to eps0/8 = 1/160, where the row is a positive multiple of
    v_1 + (1/60) d_1 and the sample certifies.
    """
    (v1, d1), *rest = frames_of(CurveSpec.moment(), TS)
    return ((v1, tuple(d - 100 * v for v, d in zip(v1, d1))), *rest)


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
        assert curves._certifying_sample(CurveSpec.moment(), TS, frames).epsilon == Fraction(1, 160)

    @pytest.mark.parametrize("name", sorted(SWEEP))
    def test_seeded_matches_oracle(self, name):
        curve, small_sum, examples = SWEEP[name]

        @settings(derandomize=True, max_examples=examples, deadline=None, database=None)
        @given(hundredths(small_sum))
        def check(ts):
            assert_search_matches_oracle(curve, ts, curves._frames(curve, ts, basis))

        basis = frenet_basis(curve)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curves, "MAX_HALVINGS", SWEEP_HALVINGS)
            check()

    def test_epsilon_polynomial_terms(self):
        # the lone even row 2 of {2,3,5,7} is v_1 + eps*d_1: P = |v1 v2 v3 v4| + eps |d1 v2 v3 v4|
        rows = [tuple(r) for r in curves._SAMPLE_ROWS]
        terms = curves._EPSILON_TERMS[rows.index((2, 3, 5, 7))]
        assert terms == ((rows.index((1, 3, 5, 7)),), (rows.index((2, 3, 5, 7)),))
        # full pairs only: a constant polynomial
        assert curves._EPSILON_TERMS[rows.index((1, 2, 5, 6))] == ((rows.index((1, 2, 5, 6)),),)
        # four lone even rows: degrees 0..4 with C(4, j) terms
        assert [len(t) for t in curves._EPSILON_TERMS[rows.index((2, 4, 6, 8))]] == [1, 4, 6, 4, 1]

    @pytest.mark.parametrize("poly, eps, nonpositive", [
        ((0, 0), Fraction(1, 2), True),
        ((-1, 3), Fraction(1, 4), True),
        ((-1, 3), Fraction(1, 3), False),  # bound met with equality: not refused
        ((0, -2, 1, 1), Fraction(1), False),
        ((0, -2, 1, 1), Fraction(1, 2), True),
        ((1, -5), Fraction(1, 100), False),
        ((-1,), Fraction(2), False),  # the bound needs eps <= 1
    ])
    def test_nonpositive_below(self, poly, eps, nonpositive):
        poly = tuple(map(Fraction, poly))
        assert curves._nonpositive_below(poly, eps) is nonpositive
        if nonpositive:
            for k in range(6):
                e = eps / 2**k
                assert sum(c * e**j for j, c in enumerate(poly)) <= 0


class TestTangentConfig:
    def test_blocks_are_tangent_lines(self):
        cfg = tangent_config(CurveSpec.moment(), TS)
        assert isinstance(cfg, ConfigBlocks)
        for t, blk in zip(TS, cfg.blocks()):
            assert blk == tangent_block(CurveSpec.moment(), t)

    def test_transversals_of_tangent_lines(self):
        # the exact (value, derivative) basis itself is not totally
        # positive, so the solver must flag the unverified hypothesis but
        # still produce both real transversals
        cfg = tangent_config(CurveSpec.moment(), TS)
        assert not check_tp_config(cfg).ok
        sol = solve_transversals(cfg)
        assert "hypothesis-not-verified" in sol.warnings
        assert len(sol.lines) == 2
        oracle = oracle_plucker_solve(cfg)
        assert len(oracle) == 2
        for ln in sol.lines:
            assert any(ln.same_line(o) for o in oracle)


class TestConvexitySample:
    def test_moment_curve(self):
        rep = convexity_sample_check(CurveSpec.moment(), 6)
        assert rep.ok
        assert rep.verdict == "sampled-consistent"
        assert not rep.frenet_degenerate
        assert rep.failures == ()

    def test_degenerate_frenet_flagged(self):
        c = poly_curve((1,), (0, 1), (0, 0, 1), (0, 0, 0, 0, 1))
        rep = convexity_sample_check(c, 5)
        assert rep.frenet_degenerate
        assert not rep.ok

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
