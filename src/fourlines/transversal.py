"""Solver for the two transversal lines of a totally positive configuration.

Pipeline: canonical reduction, the two bilinear incidence equations from
2x2 minors of X, elimination to a quadratic in x, exact roots over
Q(sqrt D), reconstruction of both lines and back-mapping to the original
coordinates, with exact certificates that raise CertificateFailure.  An
independent oracle solves the same problem directly in Pluecker
coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Tuple

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
    times_y_sign_transpose,
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
    # A and C are two of the 2x2 minors of the coefficient rows, which all
    # vanish exactly when the forms are proportional
    if quad.a == 0 == quad.c and MatQ([f.coeffs(), h.coeffs()]).rank() < 2:
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


def _canonical_span(x_val: QuadNum, y_val: QuadNum, d: Fraction) -> MatQ:
    one = QuadNum.of(1, d)
    zero = QuadNum.of(0, d)
    return MatQ(
        [
            [one, zero],
            [-x_val, zero],
            [zero, -one],
            [zero, y_val],
        ]
    )


def _recover_y(x_val: QuadNum, f: BilinearForm, h: BilinearForm) -> QuadNum:
    """Solve for y at the root x, preferring h, falling back to f."""
    for form in (h, f):
        den = form.c_xy * x_val + QuadNum.of(form.c_y, x_val.d)
        if den and den.norm() != 0:
            num = form.c_x * x_val + QuadNum.of(form.c_1, x_val.d)
            return -(num / den)
    raise NonGenericConfiguration("both y-denominators vanish at a root")


def solve_canonical(forms: Tuple[BilinearForm, BilinearForm], quad: Quadratic):
    """Both (x, y) chart solutions and the spans of the two canonical lines U(x, y).

    Returns (roots, spans, warnings); roots are pairs of QuadNums and spans
    4x2 matrices, all over the unreduced radicand D = quad.disc.
    """
    f, h = forms
    warnings: List[str] = []
    disc = quad.disc
    if quad.a == 0:
        if quad.b == 0:
            raise NonGenericConfiguration("quadratic degenerates to a constant")
        warnings.append("degenerate-leading-coefficient")
        x0 = QuadNum.of(Fraction(-quad.c, quad.b), disc)
        y0 = _recover_y(x0, f, h)
        roots = [(x0, y0)]
        spans = [_canonical_span(x0, y0, disc)]
        limit = _limit_span(f, h, disc)
        if limit is not None:
            warnings.append("solution-at-infinity")
            spans.append(limit)
            roots.append((None, None))
        return tuple(roots), tuple(spans), warnings
    sq = _sqrt_in_context(disc)
    two_a = QuadNum.of(2 * quad.a, disc)
    minus_b = QuadNum.of(-quad.b, disc)
    roots = []
    spans = []
    for sgn in (1, -1):
        if roots and sq.b:
            # sqrt D is irrational and every other step is rational, so the
            # second root is the Galois conjugate of the first
            x_val, y_val = x_val.conjugate(), y_val.conjugate()
        else:
            x_val = (minus_b + (sq if sgn == 1 else -sq)) / two_a
            y_val = _recover_y(x_val, f, h)
        if f.eval(x_val, y_val) != 0 or h.eval(x_val, y_val) != 0:
            raise CertificateFailure(f"chart root x = {x_val!r} misses a bilinear form")
        roots.append((x_val, y_val))
        spans.append(_canonical_span(x_val, y_val, disc))
        if disc == 0:
            warnings.append("double-root")
            break
    return tuple(roots), tuple(spans), warnings


def _limit_span(f: BilinearForm, h: BilinearForm, d: Fraction) -> Optional[MatQ]:
    # x -> infinity chart limit: direction (0,1,0,0) with y from the xy-leading part
    for form in (h, f):
        if form.c_xy:
            y_inf = QuadNum.of(Fraction(-form.c_x, form.c_xy), d)
            one = QuadNum.of(1, d)
            zero = QuadNum.of(0, d)
            return MatQ([[zero, zero], [one, zero], [zero, -one], [zero, y_inf]])
    return None


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
    roots, spans, w2 = solve_canonical(forms, quad)
    warnings.extend(w2)
    if len(spans) != 2:
        raise NonGenericConfiguration("expected exactly two chart solutions")
    # g = Y [W3 W4]^(-1) and Y is a signed permutation, so g^(-1) = [W3 W4] Y^T.
    g_inv = times_y_sign_transpose(blocks.w3.hstack(blocks.w4))
    ells = [plucker_of_span(w) for w in blocks.blocks()]
    if roots[0][0].b:
        # an irrational root: the second root is its conjugate (solve_canonical),
        # and the rational g^(-1) commutes with conjugation
        lines = _conjugate_lines(_map_span(g_inv, spans[0], disc), disc)
        incidence = _conjugate_incidence(lines, ells, disc)
    else:
        lines = tuple(LineRep.from_span(_map_span(g_inv, span, disc)) for span in spans)
        if lines[0].proportional(lines[1]):
            raise NonGenericConfiguration("the two solution lines coincide")
        incidence = tuple(
            tuple(_rational_meet(ell, ln.plucker, disc) for ln in lines) for ell in ells
        )
    if any(v != 0 for row in incidence for v in row):
        raise CertificateFailure("a solution line misses an input line")
    return TransversalSolution(
        canonical=canon,
        forms=forms,
        quadratic=quad,
        roots=roots,
        lines=lines,
        incidence=incidence,
        warnings=tuple(warnings),
    )


def _map_span(m: MatQ, span: MatQ, d: Fraction) -> MatQ:
    """m @ span for a rational m and a span over Q(sqrt d), as two rational
    products: one of the rational parts, one of the sqrt(d) parts."""
    a = (m @ span.map(lambda q: q.a)).entries()
    b = (m @ span.map(lambda q: q.b)).entries()
    return MatQ([[QuadNum(x, y, d) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def _conjugate_lines(span: MatQ, d: Fraction) -> Tuple[LineRep, LineRep]:
    """The line of span = A + sqrt(d)*B (A, B rational, sqrt(d) irrational)
    and its Galois conjugate A - sqrt(d)*B.

    The Pluecker vector of the first is pa + sqrt(d)*pb, with pa = A^A + d*B^B
    and pb = A^B + B^A rational; that of the conjugate is pa - sqrt(d)*pb.
    """
    a = [[q.a for q in row] for row in span.entries()]
    b = [[q.b for q in row] for row in span.entries()]
    pa = [u + d * v for u, v in zip(chart.wedge(a, a), chart.wedge(b, b))]
    pb = [u + v for u, v in zip(chart.wedge(a, b), chart.wedge(b, a))]
    return (
        LineRep(span, tuple(QuadNum(u, v, d) for u, v in zip(pa, pb))),
        LineRep(span.map(QuadNum.conjugate), tuple(QuadNum(u, -v, d) for u, v in zip(pa, pb))),
    )


def _conjugate_incidence(lines: Tuple[LineRep, LineRep], ells: list, d: Fraction) -> tuple:
    """The incidence rows of the lines pa + sqrt(d)*pb and pa - sqrt(d)*pb, from
    the pairings of each rational ell with pa and with pb.

    First certifies what makes each value of the second line the conjugate
    of the first's: its stored span and Pluecker vector are the conjugates,
    both lines lie on the Pluecker quadric, and they differ.
    """
    first, second = ((*ln.plucker, *(x for row in ln.span.entries() for x in row)) for ln in lines)
    if any(u.a != v.a or u.b != -v.b for u, v in zip(first, second)):
        raise CertificateFailure("solution line 2 is not the conjugate of line 1")
    pa, pb = tuple(u.a for u in first[:6]), tuple(u.b for u in first[:6])
    # Q(pa + sqrt(d) pb) = Q(pa) + d Q(pb) + sqrt(d) <pa, pb>: the pairing is
    # the polar form of the quadric Q
    if quadric_value(pa) + d * quadric_value(pb) or plucker_meet(pa, pb):
        raise CertificateFailure("a solution line is off the Pluecker quadric")
    # sqrt(d) is irrational, so the lines coincide exactly when pa and pb are
    # proportional; distinct conjugate roots give distinct lines
    if all(pa[i] * pb[j] == pa[j] * pb[i] for i, j in combinations(range(6), 2)):
        raise CertificateFailure("the two conjugate solution lines coincide")
    rows = []
    for ell in ells:
        u, v = plucker_meet(ell, pa), plucker_meet(ell, pb)
        rows.append((QuadNum(u, v, d), QuadNum(u, -v, d)))
    return tuple(rows)


def _rational_meet(ell: tuple, p: tuple, d: Fraction) -> QuadNum:
    """plucker_meet of a rational ell with p over Q(sqrt d), by bilinearity:
    once on the rational parts of p and once on its sqrt(d) parts."""
    return QuadNum(
        plucker_meet(ell, tuple(q.a for q in p)), plucker_meet(ell, tuple(q.b for q in p)), d
    )


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
