"""Solver for the two transversal lines of a totally positive configuration.

Pipeline: canonical reduction, the two bilinear incidence equations from
2x2 minors of X, elimination to a quadratic in x, exact roots over
Q(sqrt D), reconstruction of both lines and back-mapping to the original
coordinates, with exact certificates that raise CertificateFailure.  An
independent oracle solves the same problem directly in Pluecker
coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import (
    CertificateFailure,
    DegenerateConfiguration,
    DegenerateLine,
    DegeneratePencil,
    NoRealSolution,
    NonGenericConfiguration,
)
from .exact import MatQ, QuadNum, as_rat, rational_sqrt
from .totalpos import Y_SIGN, CanonicalForm, ConfigBlocks, canonicalize, check_tp_config


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
        return self.b * self.b - 4 * self.a * self.c


PLUCKER_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def plucker_of_span(span: MatQ) -> tuple:
    """The six 2x2 row-minors of a 4x2 span, in order (12,13,14,23,24,34)."""
    if span.rows != 4 or span.cols != 2:
        raise DegenerateLine(f"span must be 4x2, got {span.rows}x{span.cols}")
    p = tuple(
        span[r - 1, 0] * span[s - 1, 1] - span[s - 1, 0] * span[r - 1, 1]
        for r, s in PLUCKER_PAIRS
    )
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
    canonical_lines: Tuple[LineRep, LineRep]
    incidence: tuple
    warnings: Tuple[str, ...] = ()


def bilinear_forms(x: MatQ) -> Tuple[BilinearForm, BilinearForm]:
    """The incidence equations det[W1|U] = 0 and det[W2|U] = 0 as bilinear forms."""

    def form(cols) -> BilinearForm:
        return BilinearForm(
            x.minor((1, 3), cols),
            x.minor((1, 4), cols),
            x.minor((2, 3), cols),
            x.minor((2, 4), cols),
        )

    return form((1, 2)), form((3, 4))


def eliminate_to_quadratic(f: BilinearForm, h: BilinearForm) -> Quadratic:
    """Resultant of f and h with respect to y (both are linear in y)."""
    a1, b1, c1, d1 = f.coeffs()
    a2, b2, c2, d2 = h.coeffs()
    cross = [a1 * b2 - a2 * b1, a1 * c2 - a2 * c1, a1 * d2 - a2 * d1,
             b1 * c2 - b2 * c1, b1 * d2 - b2 * d1, c1 * d2 - c2 * d1]
    if not any(cross):
        raise DegeneratePencil("the two bilinear forms are proportional")
    return Quadratic(
        a=a1 * b2 - a2 * b1,
        b=a1 * d2 + c1 * b2 - a2 * d1 - c2 * b1,
        c=c1 * d2 - c2 * d1,
    )


def discriminant_from_minors(x: MatQ) -> Fraction:
    """The discriminant written directly in the eight 2x2 minors of X."""
    d1312 = x.minor((1, 3), (1, 2))
    d1412 = x.minor((1, 4), (1, 2))
    d2312 = x.minor((2, 3), (1, 2))
    d2412 = x.minor((2, 4), (1, 2))
    d1334 = x.minor((1, 3), (3, 4))
    d1434 = x.minor((1, 4), (3, 4))
    d2334 = x.minor((2, 3), (3, 4))
    d2434 = x.minor((2, 4), (3, 4))
    bracket = d1312 * d2434 - d2412 * d1334 - d1412 * d2334 + d2312 * d1434
    return bracket * bracket - 4 * (d1312 * d1434 - d1412 * d1334) * (
        d2312 * d2434 - d2412 * d2334
    )


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


def solve_canonical(x: MatQ, forms=None, quad=None):
    """Both (x, y) chart solutions and the two canonical lines U(x, y).

    Returns (roots, lines, warnings); roots are pairs of QuadNums with
    radicand D (kept unreduced).
    """
    if forms is None:
        forms = bilinear_forms(x)
    f, h = forms
    if quad is None:
        quad = eliminate_to_quadratic(f, h)
    warnings: List[str] = []
    disc = quad.disc
    if quad.a == 0:
        if quad.b == 0:
            raise NonGenericConfiguration("quadratic degenerates to a constant")
        warnings.append("degenerate-leading-coefficient")
        d_ctx = disc
        x0 = QuadNum.of(Fraction(-quad.c, quad.b), d_ctx)
        y0 = _recover_y(x0, f, h)
        roots = [(x0, y0)]
        lines = [LineRep.from_span(_canonical_span(x0, y0, d_ctx))]
        limit = _limit_line(f, h, d_ctx)
        if limit is not None:
            warnings.append("solution-at-infinity")
            lines.append(limit)
            roots.append((None, None))
        return tuple(roots), tuple(lines), warnings
    sq = _sqrt_in_context(disc)
    d_ctx = sq.d
    two_a = QuadNum.of(2 * quad.a, d_ctx)
    minus_b = QuadNum.of(-quad.b, d_ctx)
    roots = []
    lines = []
    for sgn in (1, -1):
        x_val = (minus_b + (sq if sgn == 1 else -sq)) / two_a
        y_val = _recover_y(x_val, f, h)
        if f.eval(x_val, y_val) != 0 or h.eval(x_val, y_val) != 0:
            raise CertificateFailure(f"chart root x = {x_val!r} misses a bilinear form")
        roots.append((x_val, y_val))
        lines.append(LineRep.from_span(_canonical_span(x_val, y_val, d_ctx)))
        if disc == 0:
            warnings.append("double-root")
            break
    return tuple(roots), tuple(lines), warnings


def _limit_line(f: BilinearForm, h: BilinearForm, d: Fraction) -> Optional[LineRep]:
    # x -> infinity chart limit: direction (0,1,0,0) with y from the xy-leading part
    for form in (h, f):
        if form.c_xy:
            y_inf = QuadNum.of(Fraction(-form.c_x, form.c_xy), d)
            one = QuadNum.of(1, d)
            zero = QuadNum.of(0, d)
            span = MatQ([[zero, zero], [one, zero], [zero, -one], [zero, y_inf]])
            return LineRep.from_span(span)
    return None


def solve_transversals(blocks: ConfigBlocks) -> TransversalSolution:
    """End-to-end solver: two real transversal lines with exact certificates.

    The canonical form is the one the total-positivity verdict was read
    from; incidence of each solution line with each input line is
    certified by the Pluecker pairing, which equals det[W_i | L_j] exactly.
    """
    tp = check_tp_config(blocks)
    # Only a singular [W3 W4] leaves no canonical form; canonicalize raises for it.
    canon = tp.canonical or canonicalize(blocks, strict=False)
    warnings: List[str] = [] if tp.ok else ["hypothesis-not-verified"]
    if not tp.ok and canon.g.det() <= 0:
        warnings.append("canonical-basis-orientation-flipped")
    forms = bilinear_forms(canon.x)
    quad = eliminate_to_quadratic(*forms)
    if quad.disc != discriminant_from_minors(canon.x):
        raise CertificateFailure("eliminated discriminant differs from its form in the minors of X")
    if tp.ok and quad.disc <= 0:
        raise NoRealSolution(
            f"discriminant {quad.disc} not positive despite verified total positivity"
        )
    roots, canon_lines, w2 = solve_canonical(canon.x, forms, quad)
    warnings.extend(w2)
    if len(canon_lines) != 2:
        raise NonGenericConfiguration("expected exactly two chart solutions")
    d_ctx = _context_radicand(canon_lines)
    # g = Y [W3 W4]^(-1) and Y is a signed permutation, so g^(-1) = [W3 W4] Y^T.
    g_inv = blocks.w3.hstack(blocks.w4) @ Y_SIGN.transpose()
    lines = tuple(LineRep.from_span(_map_span(g_inv, ln.span, d_ctx)) for ln in canon_lines)
    if lines[0].proportional(lines[1]):
        raise NonGenericConfiguration("the two solution lines coincide")
    incidence = tuple(
        tuple(_rational_meet(ell, ln.plucker, d_ctx) for ln in lines)
        for ell in map(plucker_of_span, blocks.blocks())
    )
    if any(v != 0 for row in incidence for v in row):
        raise CertificateFailure("a solution line misses an input line")
    return TransversalSolution(
        canonical=canon,
        forms=forms,
        quadratic=quad,
        roots=roots,
        lines=lines,
        canonical_lines=canon_lines,
        incidence=incidence,
        warnings=tuple(warnings),
    )


def _map_span(m: MatQ, span: MatQ, d: Fraction) -> MatQ:
    """m @ span for a rational m and a span over Q(sqrt d), as two rational
    products: one of the rational parts, one of the sqrt(d) parts."""
    a = (m @ span.map(lambda q: q.a)).entries()
    b = (m @ span.map(lambda q: q.b)).entries()
    return MatQ([[QuadNum(x, y, d) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def _rational_meet(ell: tuple, p: tuple, d: Fraction) -> QuadNum:
    """plucker_meet of a rational ell with p over Q(sqrt d), by bilinearity:
    once on the rational parts of p and once on its sqrt(d) parts."""
    return QuadNum(
        plucker_meet(ell, tuple(q.a for q in p)), plucker_meet(ell, tuple(q.b for q in p)), d
    )


def _context_radicand(lines) -> Fraction:
    for ln in lines:
        for v in ln.plucker:
            if isinstance(v, QuadNum):
                return v.d
    return Fraction(0)


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
