import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fourlines import (
    BilinearForm,
    ConfigBlocks,
    CurveSpec,
    DegenerateLine,
    DegeneratePencil,
    FourLinesError,
    LWParams,
    LineRep,
    MatQ,
    NoRealSolution,
    QuadNum,
    bilinear_forms,
    blocks_of_canonical,
    canonicalize,
    check_tp_config,
    discriminant_from_minors,
    eliminate_to_quadratic,
    lw_compose,
    oracle_plucker_solve,
    plucker_meet,
    plucker_of_span,
    random_tp_instance,
    solve_canonical,
    solve_transversals,
    tangent_block,
    tangent_config,
)
from fourlines import NonGenericConfiguration, chart
from fourlines.curves import POLYNOMIAL
from fourlines.exact import rational_sqrt
from fourlines.transversal import Quadratic, _printed, _table_chart, span_from_plucker

from conftest import (
    AT_INFINITY_X,
    SQUARE_X,
    X1_ENTRIES,
    concat,
    det_cofactor,
    exact_fields,
    integer_rows,
    premultiply,
    quad_roots,
    recover_y,
    rand_frac,
    rand_mat,
    rand_params,
    rand_pos_det,
    swap_w3_columns,
    two_root_solve,
)


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
            p = plucker_of_span(rand_span(rng))
            assert plucker_meet(p, p) == 0

    def test_rank_deficient_span(self):
        with pytest.raises(DegenerateLine):
            plucker_of_span(MatQ([[1, 2], [2, 4], [3, 6], [4, 8]]))
        with pytest.raises(DegenerateLine, match="^span must be 4x2, got 2x2$"):
            plucker_of_span(MatQ([[1, 0], [0, 1]]))

    def test_span_round_trip(self):
        rng = random.Random(73)
        for _ in range(50):
            s = rand_span(rng)
            back = LineRep.from_span(span_from_plucker(plucker_of_span(s)))
            assert chart.proportional(LineRep.from_span(s).plucker, back.plucker)

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


def minors_2x2(u, v) -> tuple:
    """Oracle: det [[u_r, v_r], [u_q, v_q]] for the row pairs 12, 13, 14,
    23, 24, 34, each as its own 2x2 matrix."""
    out = []
    for r, q in combinations(range(4), 2):
        m = ((u[r], v[r]), (u[q], v[q]))
        out.append(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    return tuple(out)


def det_leibniz(cols) -> Fraction:
    """The determinant of the square matrix with these columns: the sum over
    permutations s of sign(s) * prod_j cols[j][s(j)]."""
    n, total = len(cols), 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(cols[j][perm[j]] for j in range(n))
    return total


class TestWedge:
    """``chart.wedge`` of two columns against a 2x2-minor oracle and the
    Leibniz determinant, on int and Fraction entries."""

    @staticmethod
    def columns(rng, k, rational):
        entry = (lambda: rand_frac(rng)) if rational else (lambda: rng.randint(-9, 9))
        return [tuple(entry() for _ in range(4)) for _ in range(k)]

    @pytest.mark.parametrize("rational", [False, True], ids=["int", "Fraction"])
    def test_the_2x2_minors(self, rational):
        rng = random.Random(83)
        for _ in range(50):
            u, v = self.columns(rng, 2, rational)
            assert chart.wedge(u, v) == minors_2x2(u, v)

    @pytest.mark.parametrize("rational", [False, True], ids=["int", "Fraction"])
    def test_alternating_and_bilinear(self, rational):
        rng = random.Random(89)
        for _ in range(50):
            u, v, w = self.columns(rng, 3, rational)
            s, t = (rand_frac(rng) if rational else rng.randint(-9, 9) for _ in range(2))
            assert chart.wedge(u, u) == (0,) * 6
            assert chart.wedge(v, u) == tuple(-x for x in chart.wedge(u, v))
            su_tw = tuple(s * a + t * b for a, b in zip(u, w))
            assert chart.wedge(su_tw, v) == tuple(s * a + t * b for a, b in zip(chart.wedge(u, v),
                                                                                 chart.wedge(w, v)))

    @pytest.mark.parametrize("rational", [False, True], ids=["int", "Fraction"])
    def test_pairing_is_the_4x4_determinant(self, rational):
        rng = random.Random(97)
        for _ in range(50):
            a, b, c, d = self.columns(rng, 4, rational)
            assert plucker_meet(chart.wedge(a, b), chart.wedge(c, d)) == det_leibniz((a, b, c, d))


class TestBilinearForms:
    def test_x1_coefficients(self, x1):
        f, h = bilinear_forms(x1.entries())
        assert f.coeffs() == (2, 1, 3, 2)
        assert h.coeffs() == (4, 6, 10, 20)

    def test_expansion_sign_against_determinant(self):
        # oracle: the form must literally be det[W_j | U(x,y)] for the
        # chart line U(x,y) spanned by (1,-x,0,0) and (0,0,-1,y)
        rng = random.Random(79)
        for _ in range(30):
            x = lw_compose(rand_params(rng))
            f, h = bilinear_forms(x.entries())
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
        quad = eliminate_to_quadratic(*bilinear_forms(x1.entries()))
        assert (quad.a, quad.b, quad.c) == (8, 40, 40)
        assert quad.disc == 320

    def test_resultant_vanishes_at_common_roots(self):
        rng = random.Random(83)
        checked = 0
        while checked < 30:
            # the integer forms of X over den^2 have the same roots
            f, h = bilinear_forms(integer_rows(lw_compose(rand_params(rng)))[0])
            quad = eliminate_to_quadratic(f, h)
            roots, _ = solve_canonical((f, h), quad)
            for xv, yv in quad_roots(roots, quad.disc):
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
            assert eliminate_to_quadratic(*bilinear_forms(x.entries())).disc == discriminant_from_minors(x)


class TestSolveCanonical:
    def test_x1_roots(self):
        forms = bilinear_forms(X1_ENTRIES)
        quad = eliminate_to_quadratic(*forms)
        roots, warnings = solve_canonical(forms, quad)
        roots = quad_roots(roots, quad.disc)
        assert warnings == []
        assert len(roots) == 2
        assert all(v.d == 320 for root in roots for v in root)
        (xp, yp), (xm, ym) = roots
        assert xp == QuadNum(Fraction(-5, 2), Fraction(1, 16), Fraction(320))
        assert xm == QuadNum(Fraction(-5, 2), Fraction(-1, 16), Fraction(320))
        assert yp == QuadNum(Fraction(-3, 2), Fraction(-1, 16), Fraction(320))
        assert ym == QuadNum(Fraction(-3, 2), Fraction(1, 16), Fraction(320))
        # reduced field: x = (-5 +- sqrt5)/2
        assert xp.same_value(QuadNum(Fraction(-5, 2), Fraction(1, 2), Fraction(5)))

    def test_negative_discriminant(self):
        f = BilinearForm(1, 0, 0, 1)
        h = BilinearForm(0, 1, -1, 0)
        assert eliminate_to_quadratic(f, h).disc == -4
        with pytest.raises(NoRealSolution):
            solve_canonical((f, h), eliminate_to_quadratic(f, h))

    def test_double_root(self):
        f = BilinearForm(1, 0, 0, 0)
        h = BilinearForm(0, 1, 1, 0)
        quad = eliminate_to_quadratic(f, h)
        roots, warnings = solve_canonical((f, h), quad)
        roots = quad_roots(roots, quad.disc)
        assert "double-root" in warnings
        assert len(roots) == 1
        assert roots[0][0] == 0 and roots[0][1] == 0

    def test_linear_degeneration(self):
        f = BilinearForm(0, 1, 0, 1)
        h = BilinearForm(0, 0, 1, 1)
        quad = eliminate_to_quadratic(f, h)
        roots, warnings = solve_canonical((f, h), quad)
        roots = quad_roots(roots, quad.disc)
        assert "degenerate-leading-coefficient" in warnings
        assert len(roots) == 1
        assert roots[0][0] == -1 and roots[0][1] == -1

    def test_perfect_square_discriminant_stays_rational(self):
        # f: xy - 3x + 2 = 0 on the diagonal y = x gives x^2 - 3x + 2,
        # roots 1 and 2; D = 1 is a perfect square
        f = BilinearForm(1, -3, 0, 2)
        h = BilinearForm(0, -1, 1, 0)
        quad = eliminate_to_quadratic(f, h)
        assert (quad.a, quad.b, quad.c) == (-1, 3, -2) and quad.disc == 1
        roots = quad_roots(solve_canonical((f, h), quad)[0], quad.disc)
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
        assert not chart.proportional(sol.lines[0].plucker, sol.lines[1].plucker)
        for row in sol.incidence:
            assert all(v == 0 for v in row)
        # the two lines are complex-conjugation-symmetric as a pair
        assert sol.lines[0].conjugated().same_line(sol.lines[1])
        for ln in sol.lines:
            assert plucker_meet(ln.plucker, ln.plucker) == 0

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


def tangent_configs(count: int) -> list:
    """Tangent configurations of the moment curve and two convex quartics at
    seeded parameters: (certified, plain) holds ``tangent_config``'s
    certified sample blocks and the (value, derivative) blocks of the same
    four tangent lines."""
    quartic = lambda c: CurveSpec(POLYNOMIAL, ((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1, c)))
    curves = (CurveSpec.moment(), quartic(Fraction(-1, 10)), quartic(Fraction(-1, 4)))
    rng = random.Random(43)
    configs = []
    for i in range(count):
        curve = curves[i % 3]
        ts = tuple(Fraction(k, 100) for k in sorted(rng.sample(range(1, 100), 4)))
        configs.append((tangent_config(curve, ts),
                        ConfigBlocks(*(tangent_block(curve, t) for t in ts))))
    return configs


class TestConjugatePair:
    """The solver against the two-root solve that builds both lines in full."""

    def assert_matches(self, blocks):
        sol = solve_transversals(blocks)
        assert exact_fields(sol) == exact_fields(two_root_solve(blocks))
        return sol

    @pytest.mark.parametrize("bound, seeds", [(10, range(50)), (10**30, range(10))],
                             ids=["bound-10", "bound-1e30"])
    def test_random_instances(self, bound, seeds):
        for seed in seeds:
            sol = self.assert_matches(random_tp_instance(seed, bound)[1])
            assert sol.roots[0][0].b != 0  # an irrational D: the conjugate-pair path

    def test_x1(self):
        sol = self.assert_matches(blocks_of_canonical(MatQ(X1_ENTRIES)))
        assert sol.quadratic.disc == 320

    def test_tangent_configurations(self):
        # the certified sample blocks are TP and solve with no warning; the
        # (value, derivative) blocks of the same lines are not TP
        for certified, plain in tangent_configs(20):
            assert check_tp_config(certified).ok
            assert self.assert_matches(certified).warnings == ()
            assert "hypothesis-not-verified" in self.assert_matches(plain).warnings

    def test_perfect_square_discriminant(self):
        sol = self.assert_matches(blocks_of_canonical(MatQ(SQUARE_X)))
        assert sol.quadratic.disc == 966**2 and sol.warnings == ()
        assert all(v.b == 0 for root in sol.roots for v in root)
        assert all(v.b == 0 for ln in sol.lines for v in ln.plucker)
        assert not chart.proportional(sol.lines[0].plucker, sol.lines[1].plucker)

    def test_solution_at_infinity(self):
        sol = self.assert_matches(blocks_of_canonical(MatQ(AT_INFINITY_X)))
        assert sol.warnings == ("hypothesis-not-verified", "degenerate-leading-coefficient",
                                "solution-at-infinity")
        assert sol.roots[1] == (None, QuadNum.of(-2, 576))

    def test_canonical_basis_orientation_flipped(self):
        sol = self.assert_matches(swap_w3_columns(random_tp_instance(0)[1]))
        assert sol.warnings == ("hypothesis-not-verified", "canonical-basis-orientation-flipped")
        assert sol.canonical.g.det() < 0

    def test_wrong_printed_values_are_caught(self, monkeypatch):
        # the solver certifies integers and then prints them through lam with
        # no further check, so this comparison is what catches a wrong step
        blocks = random_tp_instance(0)[1]
        assert _table_chart(check_tp_config(blocks).canonical)[4] != 1
        want = exact_fields(two_root_solve(blocks))
        monkeypatch.setattr("fourlines.transversal._printed",
                            lambda v, lam, disc: _printed(v, 1 / lam, disc))
        got = exact_fields(solve_transversals(blocks))
        assert got["quadratic"] == want["quadratic"]
        assert got["roots"] != want["roots"]
        assert got["spans"] != want["spans"] and got["plucker"] != want["plucker"]


def table_chart_corpus() -> list:
    """Configurations for the table chart: random TP instances at three
    bounds, each as is, with its blocks permuted, with W3's columns
    swapped (det[W3 W4] < 0) and mapped by a dense rational g; and
    tangent configurations, certified and plain."""
    rng = random.Random(27)
    configs = []
    for bound in (10, 10**6, 10**30):
        for seed in range(6):
            blocks = random_tp_instance(seed, bound)[1]
            g = rand_mat(rng)
            while not g.det():
                g = rand_mat(rng)
            configs += [blocks, ConfigBlocks(*rng.sample(blocks.blocks(), 4)),
                        swap_w3_columns(blocks), premultiply(blocks, g)]
    return configs + [blocks for pair in tangent_configs(9) for blocks in pair]


class TestTableChart:
    """The solver reads its forms and the input lines from the minor table
    that ``check_tp_config`` verified; ``chart`` on the canonical X and the
    blocks' own wedges are the reference."""

    def test_forms_quadratic_and_lam_match_chart_on_x(self):
        orientations = set()
        for blocks in table_chart_corpus():
            canon = check_tp_config(blocks).canonical
            f, h = chart.bilinear_forms(canon.x.entries())
            a, b, c = chart.resultant(f, h)
            forms, quadratic, pforms, quad, lam = _table_chart(canon)
            assert tuple(form.coeffs() for form in forms) == (f, h)
            assert (quadratic.a, quadratic.b, quadratic.c) == (a, b, c)
            assert quadratic.disc == chart.discriminant(a, b, c) == lam * lam * quad.disc
            assert lam > 0 and (lam * quad.a, lam * quad.b, lam * quad.c) == (a, b, c)
            assert all(gcd(*form.coeffs()) == 1 for form in pforms)
            orientations.add(canon.orientation)
        assert orientations == {1, -1}

    def test_block_wedges_are_positive_multiples_of_the_input_lines(self):
        for blocks in table_chart_corpus():
            table = check_tp_config(blocks).canonical.table
            for k, w in enumerate(blocks.blocks()):
                ell, p = table.wedge(2 * k, 2 * k + 1), plucker_of_span(w)
                assert chart.proportional(ell, p)
                assert all(u * v >= 0 for u, v in zip(ell, p))


def positive_fractions(lo: int, hi: int):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(lo, hi))


#: LW parameters by regime: small heights; 10^30-size numerators and
#: denominators; and near the boundary of the chart, where some parameters
#: are 10^-6 to 10^-30 beside ordinary ones.
LW_REGIMES = {
    "tiny": positive_fractions(1, 4),
    "1e30": positive_fractions(1, 10**30),
    "boundary": st.one_of(positive_fractions(1, 9),
                          st.integers(6, 30).map(lambda k: Fraction(1, 10**k))),
}


@st.composite
def positive_det_matrices(draw):
    """Integer 4x4 matrices g with det g > 0."""
    g = MatQ([draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4)) for _ in range(4)])
    assume(g.det() != 0)
    if g.det() < 0:
        rows = list(g.entries())
        rows[0], rows[1] = rows[1], rows[0]
        g = MatQ(rows)
    return g


@st.composite
def configurations(draw):
    """Totally positive configurations, and some with their blocks reordered,
    which are mostly not."""
    _, blocks = random_tp_instance(draw(st.integers(0, 10**6)), bound=draw(st.sampled_from((10, 10**6))))
    order = draw(st.one_of(st.just((0, 1, 2, 3)), st.permutations(range(4))))
    return ConfigBlocks(*(blocks.blocks()[i] for i in order))


#: Entries of X: zeros, small signed rationals and 10^30-sized ones.
X_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)


def maximal_minors(m: MatQ) -> list:
    """The 70 maximal minors of a 4x8 matrix, by cofactor expansion."""
    return [det_cofactor(m.submatrix((1, 2, 3, 4), cols)) for cols in combinations(range(1, 9), 4)]


def solve_outcome(blocks):
    try:
        return solve_transversals(blocks)
    except FourLinesError as exc:
        return type(exc)


class TestProperties:
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(configurations(), positive_det_matrices())
    def test_gl4_plus_equivariance(self, blocks, g):
        moved, det_g = premultiply(blocks, g), g.det()
        assert maximal_minors(concat(moved)) == [det_g * m for m in maximal_minors(concat(blocks))]
        rep, moved_rep = check_tp_config(blocks), check_tp_config(moved)
        assert moved_rep.ok == rep.ok and moved_rep.witness_cols == rep.witness_cols
        sol, moved_sol = solve_outcome(blocks), solve_outcome(moved)
        if isinstance(sol, type):
            assert moved_sol is sol
            return
        assert moved_sol.warnings == sol.warnings and moved_sol.quadratic == sol.quadratic
        d = sol.quadratic.disc
        gq = g.map(lambda v: QuadNum.of(v, d))
        for ln in sol.lines:
            mapped = LineRep.from_span(gq @ ln.span)
            assert any(mapped.same_line(other) for other in moved_sol.lines)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.lists(st.fractions(max_denominator=50), min_size=4, max_size=4).filter(any),
           st.lists(st.fractions(max_denominator=50), min_size=4, max_size=4),
           st.integers(2, 10**6))
    def test_rational_forms_commute_with_conjugation(self, coeffs, parts, d):
        # f(conj x, conj y) = conj f(x, y): a root's conjugate solves every
        # rational form that the root solves, so root 2 needs no chart check
        f = BilinearForm(*coeffs)
        x, y = QuadNum(parts[0], parts[1], d), QuadNum(parts[2], parts[3], d)
        assert f.eval(x.conjugate(), y.conjugate()) == f.eval(x, y).conjugate()

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(st.lists(X_ENTRIES, min_size=16, max_size=16))
    def test_integer_chart_matches_fractions(self, entries):
        # the solver's integer forms, (A, B, C) and D, and each printed root,
        # against chart and the quadratic formula on Fractions and QuadNums
        x = MatQ([entries[i:i + 4] for i in range(0, 16, 4)])
        f, h = chart.bilinear_forms(x.entries())
        assume(any(f) and any(h))
        a, b, c = chart.resultant(f, h)
        try:
            forms, quadratic, pforms, quad, lam = _table_chart(canonicalize(blocks_of_canonical(x)))
        except DegeneratePencil:
            assert a == 0 == c  # proportional forms
            return
        assert tuple(form.coeffs() for form in forms) == (f, h)
        assert all(isinstance(v, int) for form in pforms for v in form.coeffs())
        assert lam > 0 and all(isinstance(v, int) for v in (quad.a, quad.b, quad.c, quad.disc))
        assert (quadratic.a, quadratic.b, quadratic.c) == (a, b, c) == (lam * quad.a, lam * quad.b, lam * quad.c)
        assert quadratic.disc == chart.discriminant(a, b, c) == lam * lam * quad.disc
        try:
            roots, _ = solve_canonical(pforms, quad)
        except (NoRealSolution, NonGenericConfiguration):
            return
        d = quadratic.disc
        r = rational_sqrt(d)
        sq = QuadNum(Fraction(0), Fraction(1), d) if r is None else QuadNum.of(r, d)
        for k, (xv, yv) in enumerate(roots):
            y = _printed(yv, lam, d)
            if xv is None:  # the limit line: y = -c_x / c_xy of h, else f
                lead = h if h[0] else f
                assert a == 0 and y == QuadNum.of(-lead[1] / lead[0], d)
                continue
            want = QuadNum.of(-c / b, d) if a == 0 else (QuadNum.of(-b, d) + (-sq if k else sq)) / (2 * a)
            assert _printed(xv, lam, d) == want
            assert y == recover_y(want, f, h)

    @pytest.mark.parametrize("regime", sorted(LW_REGIMES))
    def test_solver_matches_oracle(self, regime):
        @settings(derandomize=True, max_examples=25, deadline=None, database=None)
        @given(st.lists(LW_REGIMES[regime], min_size=16, max_size=16))
        def check(values):
            blocks = blocks_of_canonical(lw_compose(LWParams(tuple(values))))
            sol = solve_transversals(blocks)
            assert sol.warnings == () and sol.quadratic.disc > 0
            oracle = oracle_plucker_solve(blocks)
            assert len(oracle) == 2
            for ln in sol.lines:
                assert any(ln.same_line(o) for o in oracle)

        check()


def test_quadratic_disc():
    assert Quadratic(Fraction(8), Fraction(40), Fraction(40)).disc == 320
