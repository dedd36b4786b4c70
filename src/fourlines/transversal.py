"""Solver for the two transversal lines of a totally positive configuration.

Pipeline: canonical reduction, the two bilinear incidence equations from
2x2 minors of X, elimination to a quadratic in x, exact roots (x, y) over
Q(sqrt D), and each line built from the input blocks as the span of its
points on W4 and on W3, which x and y locate, with exact certificates that
raise CertificateFailure.  An independent oracle solves the same problem
directly in Pluecker coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Tuple

from .errors import (
    CertificateFailure,
    DegenerateConfiguration,
    DegenerateLine,
    DegeneratePencil,
    NoRealSolution,
    NonGenericConfiguration,
)
from . import chart
from .exact import MatQ, QuadNum, rational_sqrt
from .totalpos import (
    CanonicalForm,
    ConfigBlocks,
    canonicalize,
    check_tp_config,
)


@dataclass(frozen=True)
class BilinearForm:
    """c_xy*xy + c_x*x + c_y*y + c_1 = 0."""

    c_xy: Fraction
    c_x: Fraction
    c_y: Fraction
    c_1: Fraction

    def __post_init__(self):
        if not (self.c_xy or self.c_x or self.c_y or self.c_1):
            raise DegeneratePencil("identically zero bilinear form")

    def eval(self, x, y):
        return self.c_xy * x * y + self.c_x * x + self.c_y * y + self.c_1

    def coeffs(self) -> tuple:
        return (self.c_xy, self.c_x, self.c_y, self.c_1)


@dataclass(frozen=True)
class Quadratic:
    """A*x^2 + B*x + C = 0 with discriminant D = B^2 - 4AC."""

    a: Fraction
    b: Fraction
    c: Fraction

    @property
    def disc(self) -> Fraction:
        return chart.discriminant(self.a, self.b, self.c)


PLUCKER_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def plucker_of_span(span: MatQ) -> tuple:
    """The six 2x2 row-minors of a 4x2 span, in order (12,13,14,23,24,34)."""
    if span.rows != 4 or span.cols != 2:
        raise DegenerateLine(f"span must be 4x2, got {span.rows}x{span.cols}")
    p = chart.wedge(span.entries(), span.entries())
    if not any(p):
        raise DegenerateLine("span has rank < 2")
    return p


def plucker_meet(p: tuple, q: tuple):
    """Incidence pairing; equals det of the 4x4 concatenation of any spans."""
    return (
        p[0] * q[5] - p[1] * q[4] + p[2] * q[3] + p[3] * q[2] - p[4] * q[1] + p[5] * q[0]
    )


def quadric_value(p: tuple):
    """p12*p34 - p13*p24 + p14*p23; zero exactly on decomposable vectors."""
    return p[0] * p[5] - p[1] * p[4] + p[2] * p[3]


@dataclass(frozen=True)
class LineRep:
    """A line in RP^3: a rank-2 span and its Pluecker coordinates."""

    span: MatQ
    plucker: tuple

    @staticmethod
    def from_span(span: MatQ) -> "LineRep":
        p = plucker_of_span(span)
        if quadric_value(p) != 0:
            raise DegenerateLine("Pluecker quadric violated")  # pragma: no cover
        return LineRep(span=span, plucker=p)

    def proportional(self, other: "LineRep") -> bool:
        """Pluecker proportionality within one field context (15 cross products)."""
        p, q = self.plucker, other.plucker
        for i in range(6):
            for j in range(i + 1, 6):
                if p[i] * q[j] != p[j] * q[i]:
                    return False
        return True

    def normalized_plucker(self) -> tuple:
        for i, v in enumerate(self.plucker):
            if v:
                inv = v.inverse() if isinstance(v, QuadNum) else Fraction(1) / v
                return tuple(x * inv for x in self.plucker)
        raise DegenerateLine("zero Pluecker vector")

    def same_line(self, other: "LineRep") -> bool:
        """Value-level equality up to scale, across possibly different radicands."""
        p = self.normalized_plucker()
        q = other.normalized_plucker()
        return all(_same_value(u, v) for u, v in zip(p, q))

    def conjugated(self) -> "LineRep":
        conj = lambda v: v.conjugate() if isinstance(v, QuadNum) else v
        return LineRep.from_span(self.span.map(conj))


def _same_value(u, v) -> bool:
    if isinstance(u, QuadNum):
        return u.same_value(v)
    if isinstance(v, QuadNum):
        return v.same_value(u)
    return u == v


@dataclass(frozen=True)
class TransversalSolution:
    canonical: CanonicalForm
    forms: Tuple[BilinearForm, BilinearForm]
    quadratic: Quadratic
    roots: tuple
    lines: Tuple[LineRep, LineRep]
    incidence: tuple
    warnings: Tuple[str, ...] = ()


def bilinear_forms(x: MatQ) -> Tuple[BilinearForm, BilinearForm]:
    """The incidence equations det[W1|U] = 0 and det[W2|U] = 0 as bilinear forms."""
    f, h = chart.bilinear_forms(x.entries())
    return BilinearForm(*f), BilinearForm(*h)


def eliminate_to_quadratic(f: BilinearForm, h: BilinearForm) -> Quadratic:
    """Resultant of f and h with respect to y (both are linear in y)."""
    quad = Quadratic(*chart.resultant(f.coeffs(), h.coeffs()))
    # A and C are two of the six 2x2 minors of the coefficients of f and h
    # side by side, which all vanish exactly when the forms are proportional
    m = tuple(zip(f.coeffs(), h.coeffs()))
    if quad.a == 0 == quad.c and not any(chart.wedge(m, m)):
        raise DegeneratePencil("the two bilinear forms are proportional")
    return quad


def discriminant_from_minors(x: MatQ) -> Fraction:
    """The discriminant in the eight 2x2 minors of X: the chain of ``chart``
    that the solver runs and ``verify-identity`` expands symbolically."""
    return chart.discriminant_of(x.entries())


def _sqrt_in_context(disc: Fraction) -> QuadNum:
    """sqrt(disc) as a QuadNum; rational when disc is a perfect square."""
    if disc < 0:
        raise NoRealSolution(f"negative discriminant {disc}")
    r = rational_sqrt(disc)
    if r is not None:
        return QuadNum.of(r, disc)
    return QuadNum(Fraction(0), Fraction(1), disc)


def _recover_y(x_val: QuadNum, f: BilinearForm, h: BilinearForm) -> QuadNum:
    """Solve for y at the root x, preferring h, falling back to f."""
    for form in (h, f):
        den = form.c_xy * x_val + QuadNum.of(form.c_y, x_val.d)
        if den and den.norm() != 0:
            num = form.c_x * x_val + QuadNum.of(form.c_1, x_val.d)
            return -(num / den)
    raise NonGenericConfiguration("both y-denominators vanish at a root")


def _root(x_val: QuadNum, f: BilinearForm, h: BilinearForm) -> tuple:
    """The chart root (x, y) at x, certified to solve both forms."""
    y_val = _recover_y(x_val, f, h)
    if f.eval(x_val, y_val) != 0 or h.eval(x_val, y_val) != 0:
        raise CertificateFailure(f"chart root x = {x_val!r} misses a bilinear form")
    return x_val, y_val


def solve_canonical(forms: Tuple[BilinearForm, BilinearForm], quad: Quadratic):
    """Both (x, y) chart solutions, over the unreduced radicand D = quad.disc.

    Returns (roots, warnings); a root is a pair of QuadNums, or (None, y)
    for the chart's limit line as x -> infinity.  When sqrt D is irrational
    the second root is stored as the conjugate of the first, which needs no
    second chart check: the forms are rational, so f(conj x, conj y) is the
    conjugate of f(x, y) = 0.
    """
    f, h = forms
    disc = quad.disc
    if quad.a == 0:
        if quad.b == 0:
            raise NonGenericConfiguration("quadratic degenerates to a constant")
        warnings = ["degenerate-leading-coefficient"]
        roots = [_root(QuadNum.of(Fraction(-quad.c, quad.b), disc), f, h)]
        # as x -> infinity, the form's xy-leading part fixes y = -c_x / c_xy
        for form in (h, f):
            if form.c_xy:
                warnings.append("solution-at-infinity")
                roots.append((None, QuadNum.of(Fraction(-form.c_x, form.c_xy), disc)))
                break
        return tuple(roots), warnings
    sq = _sqrt_in_context(disc)
    two_a = QuadNum.of(2 * quad.a, disc)
    minus_b = QuadNum.of(-quad.b, disc)
    x_val, y_val = _root((minus_b + sq) / two_a, f, h)
    if disc == 0:
        return ((x_val, y_val),), ["double-root"]
    if sq.b:
        return ((x_val, y_val), (x_val.conjugate(), y_val.conjugate())), []
    return ((x_val, y_val), _root((minus_b - sq) / two_a, f, h)), []


def solve_transversals(blocks: ConfigBlocks) -> TransversalSolution:
    """End-to-end solver: two real transversal lines with exact certificates.

    The canonical form is the one the total-positivity verdict was read
    from; incidence of each solution line with each input line is
    certified by the Pluecker pairing, which equals det[W_i | L_j] exactly.
    """
    tp = check_tp_config(blocks)
    # Only a singular [W3 W4] leaves no canonical form; canonicalize raises for it.
    canon = tp.canonical or canonicalize(blocks)
    warnings: List[str] = [] if tp.ok else ["hypothesis-not-verified"]
    if not tp.ok and canon.g.det() <= 0:
        warnings.append("canonical-basis-orientation-flipped")
    forms = bilinear_forms(canon.x)
    quad = eliminate_to_quadratic(*forms)
    disc = quad.disc
    if tp.ok and disc <= 0:
        raise NoRealSolution(
            f"discriminant {disc} not positive despite verified total positivity"
        )
    roots, w2 = solve_canonical(forms, quad)
    warnings.extend(w2)
    if len(roots) != 2:
        raise NonGenericConfiguration("expected exactly two chart solutions")
    if roots[0][0].b:
        # root 2 is the conjugate of root 1 and the meeting points are
        # rational in x and y, so line 2 is the conjugate of line 1
        line = _line(*_meeting_span(blocks, *roots[0]), disc)
        conj = QuadNum.conjugate
        lines = (line, LineRep(line.span.map(conj), tuple(map(conj, line.plucker))))
    else:
        lines = tuple(_line(*_meeting_span(blocks, x, y), disc) for x, y in roots)
    ells = [plucker_of_span(w) for w in blocks.blocks()]
    return TransversalSolution(
        canonical=canon,
        forms=forms,
        quadratic=quad,
        roots=roots,
        lines=lines,
        incidence=_certify_lines(roots, lines, ells, disc),
        warnings=tuple(warnings),
    )


def _meeting_span(blocks: ConfigBlocks, x, y: QuadNum) -> tuple:
    """The rational part A and the sqrt(d) part B, each 4x2 and row-major,
    of a span of the solution line at the chart root (x, y): its points on
    W4 and on W3.

    With W3 = [w3a w3b] and W4 = [w4a w4b], g^(-1) = [W3 W4] Y^T has the
    columns -w4b, w4a, -w3b, w3a, so it maps the chart line's columns
    e1 - x e2 and -e3 + y e4 to -w4b - x w4a and w3b + y w3a.  The limit
    line (x None) has the column e2 instead, which maps to w4a.
    """
    w3a, w3b = blocks.w3.col(0), blocks.w3.col(1)
    w4a, w4b = blocks.w4.col(0), blocks.w4.col(1)
    if x is None:
        a4, b4 = w4a, (Fraction(0),) * 4
    else:
        a4 = [-v - x.a * u for u, v in zip(w4a, w4b)]
        b4 = [-x.b * u for u in w4a]
    a3 = [v + y.a * u for u, v in zip(w3a, w3b)]
    b3 = [y.b * u for u in w3a]
    return tuple(zip(a4, a3)), tuple(zip(b4, b3))


def _line(a, b, d: Fraction) -> LineRep:
    """The line of the span A + sqrt(d)*B over Q(sqrt d), A and B rational.

    Its Pluecker vector is pa + sqrt(d)*pb with the rational parts
    pa = A^A + d*B^B and pb = A^B + B^A.
    """
    pa = [u + d * v for u, v in zip(chart.wedge(a, a), chart.wedge(b, b))]
    pb = [u + v for u, v in zip(chart.wedge(a, b), chart.wedge(b, a))]
    span = MatQ([[QuadNum(u, v, d) for u, v in zip(ra, rb)] for ra, rb in zip(a, b)])
    return LineRep(span, tuple(QuadNum(u, v, d) for u, v in zip(pa, pb)))


def _certify_lines(roots: tuple, lines: Tuple[LineRep, LineRep], ells: list, d: Fraction) -> tuple:
    """Certify the stored solution lines on their rational parts; returns the
    incidence rows, the pairings of each input line with the two lines.

    A line's Pluecker vector is pa + sqrt(d)*pb.  When root 1 is irrational
    the pair is conjugate: root 2 and line 2 (span and Pluecker vector) must
    be the stored conjugates of root 1 and line 1, and then every value of
    line 2 is the conjugate of line 1's, so only line 1 is checked.
    Otherwise both lines must be rational (pb = 0) and both are checked.
    Each checked line lies on the Pluecker quadric and pairs to zero with
    every input line, and the two lines differ.

    Distinct roots never give coincident lines: [W3 W4] is invertible, so a
    line through a point of W3 is not inside W4 and meets W4 in one point,
    and distinct roots put that point in distinct places.
    """
    pair = bool(roots[0][0].b)
    if pair:
        if any(u.a != v.a or u.b != -v.b for u, v in zip(*roots)):
            raise CertificateFailure("root 2 is not the conjugate of root 1")
        one, two = ((*ln.plucker, *(x for row in ln.span.entries() for x in row)) for ln in lines)
        if any(u.a != v.a or u.b != -v.b for u, v in zip(one, two)):
            raise CertificateFailure("solution line 2 is not the conjugate of line 1")
    parts = [(tuple(v.a for v in ln.plucker), tuple(v.b for v in ln.plucker))
             for ln in (lines[:1] if pair else lines)]
    if not pair and any(any(pb) for _, pb in parts):
        raise CertificateFailure("a rational solution line has a sqrt(d) part")
    for pa, pb in parts:
        # Q(pa + sqrt(d) pb) = Q(pa) + d Q(pb) + sqrt(d) <pa, pb>: the pairing
        # is the polar form of the quadric Q
        if quadric_value(pa) + d * quadric_value(pb) or plucker_meet(pa, pb):
            raise CertificateFailure("a solution line is off the Pluecker quadric")
    # a conjugate pair coincides exactly when pa and pb are proportional
    # (d > 0); two rational lines when pa_1 and pa_2 are
    u, v = parts[0] if pair else (parts[0][0], parts[1][0])
    if all(u[i] * v[j] == u[j] * v[i] for i, j in combinations(range(6), 2)):
        raise CertificateFailure(f"the two {'conjugate ' if pair else ''}solution lines coincide")
    rows = []
    for ell in ells:
        meets = [QuadNum(plucker_meet(ell, pa), plucker_meet(ell, pb), d) for pa, pb in parts]
        rows.append((meets[0], meets[0].conjugate()) if pair else tuple(meets))
    if any(v for row in rows for v in row):
        raise CertificateFailure("a solution line misses an input line")
    return tuple(rows)


def span_from_plucker(p: tuple) -> MatQ:
    """Recover a rank-2 span from a decomposable Pluecker vector.

    Uses the skew matrix M with M[i][j] = p_ij, whose column space is the
    line's span when p = u ^ v.
    """
    n = 4
    m = [[None] * n for _ in range(n)]
    zero = p[0] * 0
    for idx, (r, s) in enumerate(PLUCKER_PAIRS):
        m[r - 1][s - 1] = p[idx]
        m[s - 1][r - 1] = -p[idx]
    for i in range(n):
        m[i][i] = zero
    cols = [tuple(m[i][j] for i in range(n)) for j in range(n)]
    first = next((c for c in cols if any(c)), None)
    if first is None:
        raise DegenerateLine("zero Pluecker vector")
    for c in cols:
        if c is first:
            continue
        if any(first[r] * c[s] - first[s] * c[r] for r in range(n) for s in range(r + 1, n)):
            return MatQ.from_cols([first, c])
    raise DegenerateLine("Pluecker vector has rank < 2")


def oracle_plucker_solve(blocks: ConfigBlocks) -> List[LineRep]:
    """Independent solver: intersect the incidence plane with the Pluecker quadric.

    The four conditions plucker_meet(p, l_i) = 0 must cut out a plane
    (2-dimensional nullspace); the quadric restricted to that plane is a
    binary quadratic whose real projective roots are the transversals.
    """
    ells = [plucker_of_span(w) for w in blocks.blocks()]
    rows = [
        (l[5], -l[4], l[3], l[2], -l[1], l[0])
        for l in ells
    ]
    ns = MatQ(rows).nullspace()
    if len(ns) != 2:
        raise DegenerateConfiguration(
            f"incidence conditions cut out a {len(ns)}-dimensional space, expected 2"
        )
    v1, v2 = ns
    alpha = quadric_value(v1)
    beta = plucker_meet(v1, v2)
    gamma = quadric_value(v2)
    sols: List[tuple] = []
    if alpha == 0 and beta == 0 and gamma == 0:
        raise DegenerateConfiguration("the whole incidence plane lies on the quadric")
    if alpha == 0:
        sols.append(tuple(v1))
        if beta != 0:
            s0 = -gamma / beta
            sols.append(tuple(s0 * c1 + c2 for c1, c2 in zip(v1, v2)))
    else:
        delta = beta * beta - 4 * alpha * gamma
        if delta < 0:
            return []
        sq = _sqrt_in_context(delta)
        d_ctx = sq.d
        two_a = QuadNum.of(2 * alpha, d_ctx)
        for sgn in (1, -1):
            s = (QuadNum.of(-beta, d_ctx) + (sq if sgn == 1 else -sq)) / two_a
            sols.append(
                tuple(s * QuadNum.of(c1, d_ctx) + QuadNum.of(c2, d_ctx) for c1, c2 in zip(v1, v2))
            )
            if delta == 0:
                break
    lines = [LineRep.from_span(span_from_plucker(p)) for p in sols]
    if any(plucker_meet(ln.plucker, ell) != 0 for ln in lines for ell in ells):
        raise CertificateFailure("an oracle line misses an input line")
    return lines
