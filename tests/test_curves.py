from fractions import Fraction

import pytest

from fourlines import (
    ConfigBlocks,
    CurveSpec,
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
        monkeypatch.setattr(curves, "MAX_HALVINGS", 0)
        with pytest.raises(SearchFailure):
            epsilon_threshold(CurveSpec.moment(), TS)


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
