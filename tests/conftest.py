import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from fourlines import LWParams, MatQ, SampleReport, blocks_of_canonical, frenet_basis
from fourlines import curves
from fourlines.chart import proportional
from fourlines.exact import minor_table
from fourlines.totalpos import _columns, x_minor

X1_ENTRIES = [[1, 3, 3, 1], [3, 10, 11, 4], [3, 11, 14, 6], [1, 4, 6, 4]]

#: A totally positive X (the chart at small integer parameters) with
#: D = 966^2: both roots and both lines are rational.
SQUARE_X = [[1, 7, 10, 6], [7, 52, 79, 51], [7, 61, 107, 81], [3, 30, 58, 50]]
#: An X, not totally positive, whose quadratic has A = 0: the second line is
#: the chart's limit as x -> infinity.
AT_INFINITY_X = [[3, 2, 0, 3], [3, 1, -2, 3], [0, -1, -1, -2], [0, -2, -2, 0]]

#: One PASS/FAIL line per acceptance criterion, echoed in the summary.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_held_sample():
    """Each test starts with no certified sample held for reuse
    (``curves._certifying_sample``): a report one test certified, maybe on
    patched frames, is never another test's."""
    curves._last_certified = None


@pytest.fixture
def x1() -> MatQ:
    return MatQ(X1_ENTRIES)


@pytest.fixture
def blocks_x1(x1):
    return blocks_of_canonical(x1)


@pytest.fixture
def ones_params() -> LWParams:
    return LWParams(tuple(Fraction(1) for _ in range(16)))


def x_minors(x: MatQ):
    """minor_X(R, J) of a 4x4 matrix as a function of 0-based row and column
    tuples, read by ``x_minor`` from the maximal minors of [X Y] (det Y = 1),
    the table ``lw_factor`` reads."""
    table = minor_table(_columns(blocks_of_canonical(x)))
    return lambda rows, cols: Fraction(*x_minor(table, rows, cols))


def det_cofactor(m: MatQ):
    """Laplace cofactor expansion along the first row: a determinant oracle
    independent of the library's Gauss-Jordan elimination."""
    rows = m.entries()
    if len(rows) != len(rows[0]):
        raise ValueError("determinant of non-square matrix")
    return _cofactor(rows)


def _cofactor(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            total = total + (-1) ** j * x * _cofactor([r[:j] + r[j + 1:] for r in rows[1:]])
    return total


def sample_constants(frames) -> list:
    """P_I(0) for every curve sample row set I, in lexicographic order, where
    the sample minor on I is eps^kappa_I * P_I(eps).  Each is the cofactor
    determinant of the (value, derivative) frame rows that I picks: the
    even row 2k of a full pair {2k-1, 2k} is d_k, every other row of I is
    v_k.  Row sets that pick the same rows share one expansion."""
    dets, constants = {}, []
    for rows in combinations(range(1, 9), 4):
        pick = tuple(((r - 1) // 2, r % 2 == 0 and r - 1 in rows) for r in rows)
        if pick not in dets:
            dets[pick] = det_cofactor(MatQ([frames[k][d] for k, d in pick]))
        constants.append(dets[pick])
    return constants


def lift_pairs(curve, ts) -> list:
    """(value, derivative) of the lift at each t in curve coordinates,
    evaluated term by term in Fractions: an oracle independent of the
    library's integer evaluation."""
    return [(tuple(sum(c * t**i for i, c in enumerate(comp)) for comp in curve.components),
             tuple(sum(i * c * t**(i - 1) for i, c in enumerate(comp) if i) for comp in curve.components))
            for t in ts]


def frame_pairs(frames) -> list:
    """The curve-coordinate (value, derivative) pairs that ``curves._frames``
    holds on integers: (V / s, D / s) at each t."""
    return [tuple(tuple(Fraction(x, s) for x in u) for u in (v, d)) for s, v, d in frames.points]


def frenet_frames(curve, pairs) -> tuple:
    """Curve-coordinate (value, derivative) pairs moved to the Frenet basis
    at 0 by ``frenet_basis(curve) @``: the frames as the search used to
    hold them."""
    fb = frenet_basis(curve)
    return tuple(tuple((fb @ MatQ.from_cols([u])).col(0) for u in pair) for pair in pairs)


def late(frames):
    """``curves._frames`` with the first derivative d_1 replaced by
    d_1 - 100 v_1.  The frames hold s * (v_1, d_1) in curve coordinates and
    the change to the Frenet basis is linear, so D_1 - 100 V_1 there is the
    same change."""
    (s, v1, d1), *rest = frames.points
    return frames._replace(points=((s, v1, tuple(d - 100 * v for v, d in zip(v1, d1))), *rest))


def sample_oracle(curve, ts, epsilon, pairs) -> SampleReport:
    """The epsilon sample by its definition: W's rows are ``frenet_basis(curve) @``
    v_k and v_k + eps*d_k for the curve-coordinate ``pairs`` (v_k, d_k), and
    its minors are read from ``minor_table(W)``."""
    cols = [u for v, d in pairs for u in (v, tuple(a + epsilon * b for a, b in zip(v, d)))]
    w = (frenet_basis(curve) @ MatQ.from_cols(cols)).transpose()
    table = minor_table(w.entries())
    minors = [table.value(rows) for rows in combinations(range(8), 4)]
    return SampleReport(ts=tuple(ts), epsilon=epsilon, w=w, minors=tuple(zip(curves._SAMPLE_ROWS, minors)),
                        kappas=curves._SAMPLE_KAPPAS, ok=all(m > 0 for m in minors))


def poly_eval_oracle(p, values) -> Fraction:
    """Term-by-term Fraction evaluation of a Poly16: an oracle independent
    of the library's single-division integer kernel."""
    if len(values) != 16:
        raise ValueError(f"need 16 values, got {len(values)}")
    vals = [Fraction(v) for v in values]
    total = Fraction(0)
    for ev, c in p.terms.items():
        term = Fraction(c)
        for v, e in zip(vals, ev):
            if e:
                term *= v**e
        total += term
    return total


def rand_frac(rng: random.Random, lo: int = -9, hi: int = 9, den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_pos_frac(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


def rand_mat(rng: random.Random, n: int = 4, m: int = None) -> MatQ:
    m = n if m is None else m
    return MatQ([[rand_frac(rng) for _ in range(m)] for _ in range(n)])


def rand_params(rng: random.Random, bound: int = 9) -> LWParams:
    return LWParams(tuple(rand_pos_frac(rng, bound) for _ in range(16)))


def rand_pos_det(rng: random.Random, n: int = 4) -> MatQ:
    while True:
        h = MatQ([[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
        d = h.det()
        if d > 0:
            return h
        if d < 0:
            rows = list(h.entries())
            rows[0], rows[1] = rows[1], rows[0]
            return MatQ(rows)


def premultiply(blocks, h: MatQ):
    from fourlines import ConfigBlocks

    return ConfigBlocks(*(h @ w for w in blocks.blocks()))


def concat(blocks) -> MatQ:
    """The 4x8 matrix [W1 W2 W3 W4] of a configuration."""
    return blocks.w1.hstack(blocks.w2).hstack(blocks.w3).hstack(blocks.w4)


def integer_rows(x: MatQ) -> tuple:
    """The rows of X times the LCM den of its denominators: (rows, den)."""
    den = math.lcm(*(v.denominator for row in x.entries() for v in row))
    return [[int(v * den) for v in row] for row in x.entries()], den


def quad_roots(roots, d) -> list:
    """The integer triples (p, q, r) of ``solve_canonical``'s roots as the
    QuadNums (p + q sqrt(d))/r over the radicand d (None stays None)."""
    from fourlines import QuadNum

    def value(v):
        return None if v is None else QuadNum(Fraction(v[0], v[2]), Fraction(v[1], v[2]), d)

    return [tuple(map(value, root)) for root in roots]


def swap_w3_columns(blocks):
    """The configuration with the columns of W3 swapped, which negates
    det[W3 W4] and every maximal minor that has one column of W3."""
    from fourlines import ConfigBlocks

    return ConfigBlocks(blocks.w1, blocks.w2, MatQ.from_cols([blocks.w3.col(1), blocks.w3.col(0)]), blocks.w4)


def _chart_span(x, y, d):
    """The canonical chart line U(x, y) = [e1 - x e2 | -e3 + y e4], or its
    limit [e2 | -e3 + y e4] as x -> infinity (x None), over Q(sqrt d)."""
    from fourlines import QuadNum

    one, zero = QuadNum.of(1, d), QuadNum.of(0, d)
    first = [zero, one] if x is None else [one, -x]
    return MatQ([[first[0], zero], [first[1], zero], [zero, -one], [zero, y]])


def _map_span(m, span, d):
    """m @ span for a rational m and a span over Q(sqrt d), one product on
    the rational parts and one on the sqrt(d) parts."""
    from fourlines import QuadNum

    a = (m @ span.map(lambda q: q.a)).entries()
    b = (m @ span.map(lambda q: q.b)).entries()
    return MatQ([[QuadNum(x, y, d) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def _meet_by_parts(ell, p, d):
    """The pairing of a rational ell with p over Q(sqrt d), by bilinearity:
    once on the rational parts of p and once on its sqrt(d) parts."""
    from fourlines import QuadNum, plucker_meet

    return QuadNum(plucker_meet(ell, [q.a for q in p]), plucker_meet(ell, [q.b for q in p]), d)


def recover_y(x, f, h):
    """y at the chart root x of the coefficient tuples f and h, over the
    field of x: from h unless its y-denominator vanishes there, else from f."""
    for c_xy, c_x, c_y, c_1 in (h, f):
        den = c_xy * x + c_y
        if den and den.norm() != 0:
            return -((c_x * x + c_1) / den)
    raise ValueError("both y-denominators vanish at a root")


def _eval(form, x, y):
    c_xy, c_x, c_y, c_1 = form
    return c_xy * x * y + c_x * x + c_y * y + c_1


def two_root_solve(blocks):
    """The solver with both lines built in full over Q(sqrt D), as a test-only
    oracle for the conjugate-pair path: the Fraction forms, quadratic and D
    of ``chart`` on the canonical X, each root by the quadratic formula and
    a QuadNum y-recovery, each line as the chart line U(x, y) (or its
    limit) back-mapped by g^(-1) = [W3 W4] Y^T as matrix products, then
    ``proportional`` and the pairings by parts on each line."""
    from fourlines import CertificateFailure, NonGenericConfiguration, QuadNum, Y_SIGN, check_tp_config
    from fourlines import chart
    from fourlines import transversal as T
    from fourlines.exact import rational_sqrt

    tp = check_tp_config(blocks)
    canon = tp.canonical or T.canonicalize(blocks)
    warnings = [] if tp.ok else ["hypothesis-not-verified"]
    if not tp.ok and canon.g.det() <= 0:
        warnings.append("canonical-basis-orientation-flipped")
    f, h = chart.bilinear_forms(canon.x.entries())
    a, b, c = chart.resultant(f, h)
    disc = chart.discriminant(a, b, c)
    if a == 0:
        warnings.append("degenerate-leading-coefficient")
        x = QuadNum.of(-c / b, disc)
        roots = [(x, recover_y(x, f, h))]
        leading = [form for form in (h, f) if form[0]]
        if leading:
            warnings.append("solution-at-infinity")
            roots.append((None, QuadNum.of(-leading[0][1] / leading[0][0], disc)))
    else:
        r = rational_sqrt(disc)
        sq = QuadNum(Fraction(0), Fraction(1), disc) if r is None else QuadNum.of(r, disc)
        roots = []
        for root_sq in (sq, -sq):
            x = (QuadNum.of(-b, disc) + root_sq) / QuadNum.of(2 * a, disc)
            y = recover_y(x, f, h)
            if any(_eval(form, x, y) != 0 for form in (f, h)):
                raise CertificateFailure("a chart root misses a bilinear form")
            roots.append((x, y))
            if disc == 0:
                warnings.append("double-root")
                break
    if len(roots) != 2:
        raise NonGenericConfiguration("expected exactly two chart solutions")
    g_inv = blocks.w3.hstack(blocks.w4) @ Y_SIGN.transpose()
    lines = tuple(T.LineRep.from_span(_map_span(g_inv, _chart_span(x, y, disc), disc))
                  for x, y in roots)
    if proportional(lines[0].plucker, lines[1].plucker):
        raise NonGenericConfiguration("the two solution lines coincide")
    incidence = tuple(tuple(_meet_by_parts(T.plucker_of_span(w), ln.plucker, disc) for ln in lines)
                      for w in blocks.blocks())
    if any(v != 0 for row in incidence for v in row):
        raise CertificateFailure("a solution line misses an input line")
    forms = (T.BilinearForm(*f), T.BilinearForm(*h))
    return T.TransversalSolution(canon, forms, T.Quadratic(a, b, c), tuple(roots), lines,
                                 incidence, tuple(warnings))


def exact_fields(sol) -> dict:
    """Every field of a TransversalSolution, each QuadNum as its (a, b, d)."""
    from fourlines import QuadNum

    def parts(v):
        if isinstance(v, QuadNum):
            return (v.a, v.b, v.d)
        if isinstance(v, (tuple, list)):
            return tuple(parts(u) for u in v)
        return v

    return {
        "canonical": (sol.canonical.g, sol.canonical.x, sol.canonical.y),
        "forms": sol.forms,
        "quadratic": sol.quadratic,
        "roots": parts(sol.roots),
        "spans": tuple(parts(ln.span.entries()) for ln in sol.lines),
        "plucker": tuple(parts(ln.plucker) for ln in sol.lines),
        "incidence": parts(sol.incidence),
        "warnings": sol.warnings,
    }
