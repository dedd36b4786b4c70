"""Solver for the two transversal lines of a totally positive configuration.

Pipeline: canonical reduction, the two bilinear incidence equations from
2x2 minors of X, elimination to a quadratic in x, exact roots (x, y) over
Q(sqrt D), and each line built from the input blocks as the span of its
points on W4 and on W3, which x and y locate, with exact certificates that
raise CertificateFailure.  An independent oracle solves the same problem
directly in Pluecker coordinates.

The solver reads what the total-positivity check already made from the
configuration's minor table: the forms' integer coefficients, which are
maximal minors of [X Y] (``_table_chart``), and the input lines' Pluecker
vectors, which are its block wedges (``_certify_lines``).  From the forms
on it runs on integers: each root coordinate is (p + q sqrt d)/r with
integers p, q, r and d, and each line is read from the integer blocks W3
and W4.  Every zero test is scale-free and runs on these integers, and
each printed root, span entry and Pluecker coordinate is one division of
two; D is lam^2 times the integer radicand d, equal to B^2 - 4AC of the
printed A, B, C.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import List, Tuple

from .errors import (
    CertificateFailure,
    DegenerateConfiguration,
    DegenerateLine,
    DegeneratePencil,
    NoRealSolution,
    NonGenericConfiguration,
    number_text,
)
from . import chart
from .chart import FORM_COLS, FORM_ROWS, PLUCKER_ROWS, plucker_meet, proportional, wedge
from .exact import MatQ, MinorTable, QuadNum, integer_rows, rational_sqrt
from .serialize import refuse_unprintable
from .totalpos import SINGULAR_W34, CanonicalForm, ConfigBlocks, check_tp_config, x_minor


@dataclass(frozen=True)
class BilinearForm:
    """c_xy*xy + c_x*x + c_y*y + c_1 = 0, over any ring: Fractions as
    printed, integers inside the solver."""

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
    """A*x^2 + B*x + C = 0 with discriminant D = B^2 - 4AC, computed once
    unless the caller already holds it."""

    a: Fraction
    b: Fraction
    c: Fraction
    disc: Fraction = None

    def __post_init__(self):
        if self.disc is None:
            object.__setattr__(self, "disc", chart.discriminant(self.a, self.b, self.c))


def plucker_of_span(span: MatQ) -> tuple:
    """The six 2x2 row-minors of a 4x2 span, in order (12,13,14,23,24,34)."""
    if span.rows != 4 or span.cols != 2:
        raise DegenerateLine(f"span must be 4x2, got {span.rows}x{span.cols}")
    p = chart.wedge(span.col(0), span.col(1))
    if not any(p):
        raise DegenerateLine("span has rank < 2")
    return p


@dataclass(frozen=True)
class LineRep:
    """A line in RP^3: a rank-2 span and its Pluecker coordinates."""

    span: MatQ
    plucker: tuple

    @staticmethod
    def from_span(span: MatQ) -> "LineRep":
        p = plucker_of_span(span)
        if plucker_meet(p, p) != 0:
            raise DegenerateLine("Pluecker quadric violated")  # pragma: no cover
        return LineRep(span=span, plucker=p)

    def normalized_plucker(self) -> tuple:
        for v in self.plucker:
            if v:
                inv = 1 / v
                return tuple(x * inv for x in self.plucker)
        raise DegenerateLine("zero Pluecker vector")

    def same_line(self, other: "LineRep") -> bool:
        """Value-level equality up to scale, across possibly different radicands."""
        p = self.normalized_plucker()
        q = other.normalized_plucker()
        return all(_same_value(u, v) for u, v in zip(p, q))

    def conjugated(self) -> "LineRep":
        """Each span entry and Pluecker coordinate conjugated; a rational
        one is its own conjugate."""
        conj = lambda v: v.conjugate()
        return LineRep(self.span.map(conj), tuple(map(conj, self.plucker)))


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


def bilinear_forms(x) -> Tuple[BilinearForm, BilinearForm]:
    """The incidence equations det[W1|U] = 0 and det[W2|U] = 0 as bilinear
    forms over the ring of X, given as its rows (the solver passes X scaled
    to integers)."""
    f, h = chart.bilinear_forms(x)
    return BilinearForm(*f), BilinearForm(*h)


def eliminate_to_quadratic(f: BilinearForm, h: BilinearForm) -> Quadratic:
    """Resultant of f and h with respect to y (both are linear in y)."""
    quad = Quadratic(*chart.resultant(f.coeffs(), h.coeffs()))
    # A and C are two of the six 2x2 minors of the coefficients of f beside
    # those of h, which all vanish exactly when the forms are proportional
    if quad.a == 0 == quad.c and proportional(f.coeffs(), h.coeffs()):
        raise DegeneratePencil("the two bilinear forms are proportional")
    return quad


def discriminant_from_minors(x: MatQ) -> Fraction:
    """The discriminant in the eight 2x2 minors of X: the chain of ``chart``
    that the solver runs and ``verify-identity`` expands symbolically."""
    return chart.discriminant_of(x.entries())


def _sqrt_in_context(disc: Fraction) -> QuadNum:
    """sqrt(disc) as a QuadNum; rational when disc is a perfect square."""
    if disc < 0:
        raise NoRealSolution(f"negative discriminant {number_text(disc)}")
    r = rational_sqrt(disc)
    if r is not None:
        return QuadNum.of(r, disc)
    return QuadNum(Fraction(0), Fraction(1), disc)


def _y_at(x: tuple, forms: tuple, d: int) -> tuple:
    """The y of the root at x = (p + q sqrt d)/r of integer forms, as an
    integer triple (u, v, w) meaning (u + v sqrt d)/w; from h, else from f.

    y = -N/M with N = c_x x + c_1 and M = c_xy x + c_y, so y = -N conj(M) /
    norm(M), which needs norm(M) != 0.  A rational x has q = 0, and its
    norm is the square of M.  The triple is divided by its content, which
    keeps the lines built from it small.
    """
    p, q, r = x
    for form in reversed(forms):
        m0, m1 = form.c_xy * p + form.c_y * r, form.c_xy * q
        norm = m0 * m0 - d * m1 * m1
        if norm:
            n0, n1 = form.c_x * p + form.c_1 * r, form.c_x * q
            u, v = d * n1 * m1 - n0 * m0, n0 * m1 - n1 * m0
            c = gcd(u, v, norm)
            return u // c, v // c, norm // c
    raise NonGenericConfiguration("both y-denominators vanish at a root")


def _root(x: tuple, forms: tuple, d: int) -> tuple:
    """The chart root (x, y) at x, certified to solve both integer forms.

    With x = (p + q sqrt d)/r and y = (u + v sqrt d)/w, r*w*form(x, y)
    has the rational part and the sqrt(d) part below; both must vanish.
    """
    p, q, r = x
    u, v, w = _y_at(x, forms, d)
    for form in forms:
        c_xy, c_x, c_y, c_1 = form.coeffs()
        if (c_xy * (p * u + d * q * v) + c_x * p * w + c_y * u * r + c_1 * r * w
                or c_xy * (p * v + q * u) + c_x * q * w + c_y * v * r):
            raise CertificateFailure("chart root x = ({} + {}*sqrt({}))/{} misses a bilinear form"
                                     .format(*map(number_text, (p, q, d, r))))
    return x, (u, v, w)


def solve_canonical(forms: Tuple[BilinearForm, BilinearForm], quad: Quadratic):
    """Both (x, y) chart solutions of integer forms and their integer
    quadratic, over the radicand d = quad.disc.

    Returns (roots, warnings); a root is a pair of integer triples
    (p, q, r) meaning (p + q sqrt d)/r, or (None, y) for the chart's limit
    line as x -> infinity.  The roots do not change when a form, or
    (A, B, C), is scaled, so the forms may be primitive.  When sqrt d is
    irrational the second root is the conjugate of the first (q -> -q),
    which needs no second chart check: the forms are rational, so
    f(conj x, conj y) is the conjugate of f(x, y) = 0.  A negative d
    raises NoRealSolution.
    """
    f, h = forms
    a, b, c, d = quad.a, quad.b, quad.c, quad.disc
    if a == 0:
        if b == 0:
            raise NonGenericConfiguration("quadratic degenerates to a constant")
        warnings = ["degenerate-leading-coefficient"]
        roots = [_root((-c, 0, b), forms, d)]
        # as x -> infinity, the form's xy-leading part fixes y = -c_x / c_xy
        for form in (h, f):
            if form.c_xy:
                warnings.append("solution-at-infinity")
                roots.append((None, (-form.c_x, 0, form.c_xy)))
                break
        return tuple(roots), warnings
    if d < 0:
        raise NoRealSolution(f"negative discriminant {number_text(d)}")
    s = isqrt(d)
    if s * s == d:
        one = _root((s - b, 0, 2 * a), forms, d)
        if d == 0:
            return (one,), ["double-root"]
        return (one, _root((-s - b, 0, 2 * a), forms, d)), []
    (p, q, r), (u, v, w) = _root((-b, 1, 2 * a), forms, d)
    return (((p, q, r), (u, v, w)), ((p, -q, r), (u, -v, w))), []


def _table_chart(canon: CanonicalForm) -> tuple:
    """The chart's forms and quadratic at the canonical X, printed and on
    integers: (forms, quadratic, pforms, quad, lam).

    Each coefficient of a form is a 2x2 minor of X (``chart.FORM_ROWS``,
    ``FORM_COLS``), which the configuration's minor table already holds:
    ``x_minor`` reads it as an integer over a positive denominator den_J
    that depends only on the form's columns J, so the printed ``forms``
    are the integer forms over den_12 and den_34.  ``pforms`` are the
    integer forms each divided by its content c_J, and ``quad`` their
    resultant divided by its content g, so the printed ``quadratic`` is
    lam * quad with lam = c_12 c_34 g / (den_12 den_34) > 0, and D =
    lam^2 * quad.disc.  The roots and every certificate are scale-free in
    each form and in (A, B, C), and the primitive integers stay near the
    height of the reduced values.
    """
    ints, dens = [], []
    for cols in FORM_COLS:
        coeffs = [x_minor(canon.table, rows, cols) for rows in FORM_ROWS]
        ints.append(BilinearForm(*(n for n, _ in coeffs)))
        dens.append(coeffs[0][1])
    contents = [gcd(*form.coeffs()) for form in ints]
    pforms = tuple(BilinearForm(*(v // c for v in form.coeffs())) for form, c in zip(ints, contents))
    quad = eliminate_to_quadratic(*pforms)
    g = gcd(quad.a, quad.b, quad.c) or 1
    quad = Quadratic(quad.a // g, quad.b // g, quad.c // g)
    lam = Fraction(contents[0] * contents[1] * g, dens[0] * dens[1])
    n, m = lam.numerator, lam.denominator
    quadratic = Quadratic(*(Fraction(v * n, m) for v in (quad.a, quad.b, quad.c)),
                          Fraction(quad.disc * n * n, m * m))
    forms = tuple(BilinearForm(*(Fraction(v, den) for v in form.coeffs())) for form, den in zip(ints, dens))
    return forms, quadratic, pforms, quad, lam


def _printed(v: tuple, lam: Fraction, disc: Fraction) -> QuadNum:
    """The integer triple (p, q, r), meaning (p + q sqrt d)/r with
    d = disc / lam^2, as a QuadNum over disc: sqrt d = sqrt(disc) / lam.

    The certificates run on the integers before this step, so a printed
    value is a transform of certified integers that no certificate checks
    again; the tests compare the printed solution with an independent
    solve on Fractions and QuadNums.
    """
    p, q, r = v
    return QuadNum(Fraction(p, r), Fraction(q * lam.denominator, r * lam.numerator), disc)


def solve_transversals(blocks: ConfigBlocks) -> TransversalSolution:
    """End-to-end solver: two real transversal lines with exact certificates.

    The canonical form is the one the total-positivity verdict was read
    from, and a singular [W3 W4], which has none, is refused; the forms
    and the input lines are read from its minor table.  Incidence of each
    solution line with each input line is certified by the Pluecker
    pairing, which equals det[W_i | L_j] exactly.
    The certificates run on the integer parts of each line, and the printed
    roots, spans and Pluecker vectors are one division each of those
    integers (``_printed``).  A solution prints g and X first, then the
    forms and A, B, C and D; when one of those numbers is past the print
    limit, the InputError that printing it would raise comes as soon as
    the number is known: g and X before the solve, the rest after the
    checks on D and the roots, before any line is built.
    """
    tp = check_tp_config(blocks)
    canon = tp.canonical
    if canon is None:
        raise DegenerateConfiguration(SINGULAR_W34)
    refuse_unprintable(v for m in (canon.g, canon.x) for row in m.entries() for v in row)
    warnings: List[str] = [] if tp.ok else ["hypothesis-not-verified"]
    if not tp.ok and canon.orientation < 0:
        warnings.append("canonical-basis-orientation-flipped")
    forms, quadratic, pforms, quad, lam = _table_chart(canon)
    # D = lam^2 * quad.disc has the sign of quad.disc; the messages name D
    disc = quadratic.disc
    if tp.ok and quad.disc <= 0:
        raise NoRealSolution(f"discriminant {number_text(disc)} not positive despite verified total positivity")
    if quad.disc < 0:
        raise NoRealSolution(f"negative discriminant {number_text(disc)}")
    roots, w2 = solve_canonical(pforms, quad)
    warnings.extend(w2)
    if len(roots) != 2:
        raise NonGenericConfiguration("expected exactly two chart solutions")
    # the forms and A, B, C, D print next, in this order
    refuse_unprintable((*forms[0].coeffs(), *forms[1].coeffs(), quadratic.a, quadratic.b, quadratic.c, disc))
    # root 2 of a conjugate pair is the conjugate of root 1 and the meeting
    # points are rational in x and y, so line 2 is the conjugate of line 1
    pair = roots[0][0][1] != 0
    w34 = [integer_rows(w.entries()) for w in (blocks.w3, blocks.w4)]
    lines, parts = [], []
    for x, y in roots[:1] if pair else roots:
        a, b, (k4, k3) = _meeting_span(*w34, x, y)
        pa, pb = _plucker_parts(a, b, quad.disc)
        parts.append((pa, pb))
        span = MatQ([[_printed((u, v, k4), lam, disc), _printed((s, t, k3), lam, disc)]
                     for u, s, v, t in zip(*a, *b)])
        plucker = tuple(_printed((u, v, k4 * k3), lam, disc) for u, v in zip(pa, pb))
        lines.append(LineRep(span, plucker))
    if pair:
        x, y = (_printed(v, lam, disc) for v in roots[0])
        roots = ((x, y), (x.conjugate(), y.conjugate()))
        lines.append(lines[0].conjugated())
    else:
        roots = tuple((None if x is None else _printed(x, lam, disc), _printed(y, lam, disc))
                      for x, y in roots)
    _certify_lines(roots, lines, parts, canon.table, quad.disc)
    # the certificate proved every pairing zero
    zero = QuadNum.of(0, disc)
    return TransversalSolution(
        canonical=canon,
        forms=forms,
        quadratic=quadratic,
        roots=roots,
        lines=tuple(lines),
        incidence=((zero, zero),) * 4,
        warnings=tuple(warnings),
    )


def _meeting_span(w3: tuple, w4: tuple, x, y: tuple) -> tuple:
    """The integer parts A and B, each 4x2 and given as its two columns,
    and the column denominators (k4, k3) of a span of the solution line at
    the chart root (x, y): its points on W4 and on W3.  Column j of the span
    is (A[j] + sqrt(d)*B[j]) / k_j, for the radicand d of the roots.

    W3 and W4 are given as (rows, s): integer rows over one denominator s.
    With W3 = [w3a w3b] and W4 = [w4a w4b], g^(-1) = [W3 W4] Y^T has the
    columns -w4b, w4a, -w3b, w3a, so it maps the chart line's columns
    e1 - x e2 and -e3 + y e4 to -w4b - x w4a and w3b + y w3a.  The limit
    line (x None) has the column e2 instead, which maps to w4a.
    """
    (rows3, s3), (rows4, s4) = w3, w4
    if x is None:
        a4, b4, k4 = [u for u, _ in rows4], [0] * 4, s4
    else:
        p, q, r = x
        a4 = [-r * v - p * u for u, v in rows4]
        b4 = [-q * u for u, _ in rows4]
        k4 = r * s4
    yp, yq, yr = y
    a3 = [yr * v + yp * u for u, v in rows3]
    b3 = [yq * u for u, _ in rows3]
    return (a4, a3), (b4, b3), (k4, yr * s3)


def _plucker_parts(a, b, d: int) -> tuple:
    """The parts pa and pb of the Pluecker vector pa + sqrt(d)*pb of the
    span A + sqrt(d)*B, where A = (a1, a2) and B = (b1, b2) are given as
    their columns: pa = a1^a2 + d*b1^b2 and pb = a1^b2 + b1^a2."""
    (a1, a2), (b1, b2) = a, b
    pa = tuple(u + d * v for u, v in zip(wedge(a1, a2), wedge(b1, b2)))
    pb = tuple(u + v for u, v in zip(wedge(a1, b2), wedge(b1, a2)))
    return pa, pb


def _certify_lines(roots: tuple, lines: Tuple[LineRep, LineRep], parts: list, table: MinorTable,
                   d: int) -> None:
    """Certify the solution lines on the integer parts of their Pluecker
    vectors.

    ``parts`` holds (pa, pb) of each line built, a Pluecker vector
    pa + sqrt(d)*pb up to a non-zero integer factor, and ``table`` the
    configuration's minor table (``CanonicalForm.table``): its column wedge
    ``table.wedge(2k, 2k + 1)`` is input line k + 1's Pluecker vector times
    the two column scales of its block.  Every test below is a zero test,
    so no non-zero factor changes its outcome.  When root 1 is irrational
    the pair is conjugate: the printed root 2 and line 2 (span and Pluecker
    vector) must be the stored conjugates of root 1 and line 1, and then
    every value of line 2 is the conjugate of line 1's, so only line 1 was
    built and is checked.  Otherwise both lines must be rational (pb = 0)
    and both are checked.  Each checked line lies on the Pluecker quadric
    and pairs to zero with every input line, and the two lines differ.

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
    elif any(any(pb) for _, pb in parts):
        raise CertificateFailure("a rational solution line has a sqrt(d) part")
    for pa, pb in parts:
        # <p, p> = 0 is the Pluecker quadric, and <pa + sqrt(d) pb, same>
        # = <pa, pa> + d <pb, pb> + 2 sqrt(d) <pa, pb>
        if plucker_meet(pa, pa) + d * plucker_meet(pb, pb) or plucker_meet(pa, pb):
            raise CertificateFailure("a solution line is off the Pluecker quadric")
    # a conjugate pair coincides exactly when pa and pb are proportional
    # (d > 0); two rational lines when pa_1 and pa_2 are
    u, v = parts[0] if pair else (parts[0][0], parts[1][0])
    if proportional(u, v):
        raise CertificateFailure(f"the two {'conjugate ' if pair else ''}solution lines coincide")
    ells = [table.wedge(k, k + 1) for k in (0, 2, 4, 6)]
    if any(plucker_meet(ell, p) for ell in ells for part in parts for p in part):
        raise CertificateFailure("a solution line misses an input line")


def span_from_plucker(p: tuple) -> MatQ:
    """Recover a rank-2 span from a decomposable Pluecker vector.

    Uses the skew matrix M with M[i][j] = p_ij, whose column space is the
    line's span when p = u ^ v.
    """
    n = 4
    m = [[None] * n for _ in range(n)]
    zero = p[0] * 0
    for idx, (r, s) in enumerate(PLUCKER_ROWS):
        m[r][s] = p[idx]
        m[s][r] = -p[idx]
    for i in range(n):
        m[i][i] = zero
    cols = [tuple(m[i][j] for i in range(n)) for j in range(n)]
    first = next((c for c in cols if any(c)), None)
    if first is None:
        raise DegenerateLine("zero Pluecker vector")
    for c in cols:
        if c is not first and not proportional(first, c):
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
    alpha = plucker_meet(v1, v1) / 2
    beta = plucker_meet(v1, v2)
    gamma = plucker_meet(v2, v2) / 2
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
