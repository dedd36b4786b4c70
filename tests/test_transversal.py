import random
from fractions import Fraction

import pytest

from fourlines import (
    BilinearForm,
    DegenerateLine,
    DegeneratePencil,
    LineRep,
    MatQ,
    NoRealSolution,
    QuadNum,
    bilinear_forms,
    discriminant_from_minors,
    eliminate_to_quadratic,
    lw_compose,
    oracle_plucker_solve,
    plucker_meet,
    plucker_of_span,
    random_tp_instance,
    solve_canonical,
    solve_transversals,
)
from fourlines.transversal import Quadratic, quadric_value, span_from_plucker

from conftest import premultiply, rand_frac, rand_mat, rand_params, rand_pos_det


def rand_span(rng):
    while True:
        s = rand_mat(rng, 4, 2)
        if s.rank() == 2:
            return s


class TestPlucker:
    def test_meet_is_concatenation_determinant(self):
        rng = random.Random(67)
        for _ in range(50):
            s1, s2 = rand_span(rng), rand_span(rng)
            assert plucker_meet(plucker_of_span(s1), plucker_of_span(s2)) == s1.hstack(s2).det()

    def test_quadric_vanishes_on_spans(self):
        rng = random.Random(71)
        for _ in range(50):
            assert quadric_value(plucker_of_span(rand_span(rng))) == 0

    def test_rank_deficient_span(self):
        with pytest.raises(DegenerateLine):
            plucker_of_span(MatQ([[1, 2], [2, 4], [3, 6], [4, 8]]))

    def test_span_round_trip(self):
        rng = random.Random(73)
        for _ in range(50):
            s = rand_span(rng)
            back = LineRep.from_span(span_from_plucker(plucker_of_span(s)))
            assert LineRep.from_span(s).proportional(back)

    def test_same_line_across_radicands(self):
        # sqrt(320) = 8 sqrt(5): the same point of the quadric in two fields
        def line(d, scale):
            one = QuadNum.of(1, d)
            return LineRep.from_span(
                MatQ([[one, one * 0], [scale, one * 0], [one * 0, one], [one * 0, scale]])
            )

        l320 = line(Fraction(320), QuadNum(Fraction(0), Fraction(1), Fraction(320)))
        l5 = line(Fraction(5), QuadNum(Fraction(0), Fraction(8), Fraction(5)))
        assert l320.same_line(l5)
        assert not l320.same_line(l5.conjugated())


class TestBilinearForms:
    def test_x1_coefficients(self, x1):
        f, h = bilinear_forms(x1)
        assert f.coeffs() == (2, 1, 3, 2)
        assert h.coeffs() == (4, 6, 10, 20)

    def test_expansion_sign_against_determinant(self):
        # oracle: the form must literally be det[W_j | U(x,y)] for the
        # chart line U(x,y) spanned by (1,-x,0,0) and (0,0,-1,y)
        rng = random.Random(79)
        for _ in range(30):
            x = lw_compose(rand_params(rng))
            f, h = bilinear_forms(x)
            xv, yv = rand_frac(rng), rand_frac(rng)
            span = MatQ([[1, 0], [-xv, 0], [0, -1], [0, yv]])
            w1 = MatQ.from_cols([x.col(0), x.col(1)])
            w2 = MatQ.from_cols([x.col(2), x.col(3)])
            assert w1.hstack(span).det() == f.eval(xv, yv)
            assert w2.hstack(span).det() == h.eval(xv, yv)

    def test_identically_zero_rejected(self):
        with pytest.raises(DegeneratePencil):
            BilinearForm(Fraction(0), Fraction(0), Fraction(0), Fraction(0))


class TestElimination:
    def test_x1_quadratic(self, x1):
        quad = eliminate_to_quadratic(*bilinear_forms(x1))
        assert (quad.a, quad.b, quad.c) == (8, 40, 40)
        assert quad.disc == 320

    def test_resultant_vanishes_at_common_roots(self):
        rng = random.Random(83)
        checked = 0
        while checked < 30:
            x = lw_compose(rand_params(rng))
            f, h = bilinear_forms(x)
            quad = eliminate_to_quadratic(f, h)
            roots, _, _ = solve_canonical((f, h), quad)
            for xv, yv in roots:
                if xv is None:
                    continue
                ax2 = quad.a * xv * xv + quad.b * xv + QuadNum.of(quad.c, xv.d)
                assert ax2 == 0
                assert f.eval(xv, yv) == 0 and h.eval(xv, yv) == 0
            checked += 1

    def test_proportional_forms(self):
        f = BilinearForm(Fraction(1), Fraction(2), Fraction(3), Fraction(4))
        h = BilinearForm(Fraction(2), Fraction(4), Fraction(6), Fraction(8))
        with pytest.raises(DegeneratePencil):
            eliminate_to_quadratic(f, h)
        # xy and y share the factor y: the resultant vanishes, but they are
        # not proportional
        xy = BilinearForm(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        y = BilinearForm(Fraction(0), Fraction(0), Fraction(1), Fraction(0))
        assert eliminate_to_quadratic(xy, y) == Quadratic(0, 0, 0)

    def test_discriminant_from_minors_matches(self):
        rng = random.Random(89)
        for _ in range(50):
            x = lw_compose(rand_params(rng))
            assert eliminate_to_quadratic(*bilinear_forms(x)).disc == discriminant_from_minors(x)


class TestSolveCanonical:
    def test_x1_roots(self, x1):
        forms = bilinear_forms(x1)
        roots, spans, warnings = solve_canonical(forms, eliminate_to_quadratic(*forms))
        assert warnings == []
        assert len(roots) == len(spans) == 2
        assert all(LineRep.from_span(s).plucker[0].d == 320 for s in spans)
        (xp, yp), (xm, ym) = roots
        assert xp == QuadNum(Fraction(-5, 2), Fraction(1, 16), Fraction(320))
        assert xm == QuadNum(Fraction(-5, 2), Fraction(-1, 16), Fraction(320))
        assert yp == QuadNum(Fraction(-3, 2), Fraction(-1, 16), Fraction(320))
        assert ym == QuadNum(Fraction(-3, 2), Fraction(1, 16), Fraction(320))
        # reduced field: x = (-5 +- sqrt5)/2
        assert xp.same_value(QuadNum(Fraction(-5, 2), Fraction(1, 2), Fraction(5)))

    def test_negative_discriminant(self):
        f = BilinearForm(Fraction(1), Fraction(0), Fraction(0), Fraction(1))
        h = BilinearForm(Fraction(0), Fraction(1), Fraction(-1), Fraction(0))
        assert eliminate_to_quadratic(f, h).disc == -4
        with pytest.raises(NoRealSolution):
            solve_canonical((f, h), eliminate_to_quadratic(f, h))

    def test_double_root(self):
        f = BilinearForm(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        h = BilinearForm(Fraction(0), Fraction(1), Fraction(1), Fraction(0))
        roots, spans, warnings = solve_canonical((f, h), eliminate_to_quadratic(f, h))
        assert "double-root" in warnings
        assert len([LineRep.from_span(s) for s in spans]) == 1
        assert roots[0][0] == 0 and roots[0][1] == 0

    def test_linear_degeneration(self):
        f = BilinearForm(Fraction(0), Fraction(1), Fraction(0), Fraction(1))
        h = BilinearForm(Fraction(0), Fraction(0), Fraction(1), Fraction(1))
        roots, spans, warnings = solve_canonical((f, h), eliminate_to_quadratic(f, h))
        assert "degenerate-leading-coefficient" in warnings
        assert len([LineRep.from_span(s) for s in spans]) == 1
        assert roots[0][0] == -1 and roots[0][1] == -1

    def test_perfect_square_discriminant_stays_rational(self):
        # f: xy - 3x + 2 = 0 on the diagonal y = x gives x^2 - 3x + 2,
        # roots 1 and 2; D = 1 is a perfect square
        f = BilinearForm(Fraction(1), Fraction(-3), Fraction(0), Fraction(2))
        h = BilinearForm(Fraction(0), Fraction(-1), Fraction(1), Fraction(0))
        quad = eliminate_to_quadratic(f, h)
        assert (quad.a, quad.b, quad.c) == (-1, 3, -2) and quad.disc == 1
        roots, _, _ = solve_canonical((f, h), quad)
        xs = sorted(r[0].a for r in roots)
        assert xs == [1, 2]
        assert all(r[0].b == 0 for r in roots)


class TestSolveTransversals:
    def test_x1_end_to_end(self, blocks_x1):
        sol = solve_transversals(blocks_x1)
        assert sol.warnings == ()
        assert (sol.quadratic.a, sol.quadratic.b, sol.quadratic.c) == (8, 40, 40)
        assert sol.quadratic.disc == 320
        assert len(sol.lines) == 2
        assert not sol.lines[0].proportional(sol.lines[1])
        for row in sol.incidence:
            assert all(v == 0 for v in row)
        # the two lines are complex-conjugation-symmetric as a pair
        assert sol.lines[0].conjugated().same_line(sol.lines[1])
        for ln in sol.lines:
            assert quadric_value(ln.plucker) == 0

    def test_matches_oracle(self, blocks_x1):
        sol = solve_transversals(blocks_x1)
        oracle = oracle_plucker_solve(blocks_x1)
        assert len(oracle) == 2
        for ln in sol.lines:
            assert any(ln.same_line(o) for o in oracle)

    def test_random_instances_match_oracle(self):
        rng = random.Random(97)
        for _ in range(30):
            _, blocks = random_tp_instance(rng.randrange(10**6), bound=6)
            blocks = premultiply(blocks, rand_pos_det(rng))
            sol = solve_transversals(blocks)
            assert sol.warnings == ()
            assert sol.quadratic.disc > 0
            oracle = oracle_plucker_solve(blocks)
            assert len(oracle) == 2
            for ln in sol.lines:
                assert any(ln.same_line(o) for o in oracle)

    def test_equivariance(self, blocks_x1):
        # transversals of h*W are h*(transversals of W)
        rng = random.Random(101)
        base = solve_transversals(blocks_x1)
        for _ in range(10):
            h = rand_pos_det(rng)
            sol = solve_transversals(premultiply(blocks_x1, h))
            assert sol.canonical.x == base.canonical.x
            assert sol.quadratic == base.quadratic
            d = base.lines[0].plucker[0].d
            hq = h.map(lambda v: QuadNum.of(v, d))
            for ln in base.lines:
                mapped = LineRep.from_span(hq @ ln.span)
                assert any(mapped.same_line(s) for s in sol.lines)


def test_quadratic_disc():
    assert Quadratic(Fraction(8), Fraction(40), Fraction(40)).disc == 320
