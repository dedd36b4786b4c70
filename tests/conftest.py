import random
from fractions import Fraction

import pytest

from fourlines import LWParams, MatQ, blocks_of_canonical, lw_compose

X1_ENTRIES = [[1, 3, 3, 1], [3, 10, 11, 4], [3, 11, 14, 6], [1, 4, 6, 4]]

#: One PASS/FAIL line per acceptance criterion, echoed in the summary.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def x1() -> MatQ:
    return MatQ(X1_ENTRIES)


@pytest.fixture
def blocks_x1(x1):
    return blocks_of_canonical(x1)


@pytest.fixture
def ones_params() -> LWParams:
    return LWParams(tuple(Fraction(1) for _ in range(16)))


def det_cofactor(m: MatQ):
    """Laplace cofactor expansion along the first row: a determinant oracle
    independent of the library's Bareiss elimination."""
    rows = m.entries()
    if len(rows) != len(rows[0]):
        raise ValueError("determinant of non-square matrix")
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            sub = MatQ([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total + (-1) ** j * x * det_cofactor(sub)
    return total


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


def two_root_solve(blocks):
    """The solver with both lines built in full over Q(sqrt D), as a test-only
    oracle for the conjugate-pair path: each root by the quadratic formula
    and ``_recover_y``, each line as the chart line U(x, y) (or its limit)
    back-mapped by g^(-1) = [W3 W4] Y^T as matrix products, then
    ``proportional`` and ``_rational_meet`` on each line."""
    from fourlines import CertificateFailure, NonGenericConfiguration, QuadNum, Y_SIGN, check_tp_config
    from fourlines import transversal as T

    tp = check_tp_config(blocks)
    canon = tp.canonical or T.canonicalize(blocks)
    warnings = [] if tp.ok else ["hypothesis-not-verified"]
    if not tp.ok and canon.g.det() <= 0:
        warnings.append("canonical-basis-orientation-flipped")
    forms = T.bilinear_forms(canon.x)
    quad = T.eliminate_to_quadratic(*forms)
    disc = quad.disc
    if quad.a == 0:
        warnings.append("degenerate-leading-coefficient")
        x = QuadNum.of(-quad.c / quad.b, disc)
        roots = [(x, T._recover_y(x, *forms))]
        leading = [form for form in reversed(forms) if form.c_xy]
        if leading:
            warnings.append("solution-at-infinity")
            roots.append((None, QuadNum.of(-leading[0].c_x / leading[0].c_xy, disc)))
    else:
        sq = T._sqrt_in_context(disc)
        roots = []
        for root_sq in (sq, -sq):
            x = (QuadNum.of(-quad.b, disc) + root_sq) / QuadNum.of(2 * quad.a, disc)
            y = T._recover_y(x, *forms)
            if any(form.eval(x, y) != 0 for form in forms):
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
    if lines[0].proportional(lines[1]):
        raise NonGenericConfiguration("the two solution lines coincide")
    incidence = tuple(tuple(T._rational_meet(T.plucker_of_span(w), ln.plucker, disc) for ln in lines)
                      for w in blocks.blocks())
    if any(v != 0 for row in incidence for v in row):
        raise CertificateFailure("a solution line misses an input line")
    return T.TransversalSolution(canon, forms, quad, tuple(roots), lines, incidence, tuple(warnings))


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
