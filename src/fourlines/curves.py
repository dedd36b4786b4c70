"""Convex-curve constructions: the moment curve, tangent configurations,
the epsilon-sampling certificate, sampled convexity checks, and the
Schubert count of the underlying enumerative problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    CertificateFailure,
    DegenerateConfiguration,
    DomainError,
    InputError,
    NotConvex,
    SearchFailure,
)
from .chart import wedge
from .exact import IndexSet, MatQ, as_rat, maximal_minors
from .totalpos import ConfigBlocks

RATIONAL_NORMAL = "rational_normal"
POLYNOMIAL = "polynomial"

#: Largest ``convexity_sample_check`` grid: C(32, 4) = 35,960 determinants;
#: the minor table's time and memory grow as grid^4.
MAX_GRID = 32
#: Halvings of the epsilon search before it gives up.
MAX_HALVINGS = 64
#: Most coefficients per curve component (degree 5), and most characters in
#: a rational literal of a curve spec, ``--ts`` or ``--epsilon``.  At both
#: caps ``convexity-check --grid 32`` takes under 2 s, as on a small quartic.
MAX_CURVE_COEFFS = 6
MAX_CURVE_LITERAL = 8
#: Largest n of ``schubert_count``: counts up to n = 100 have at most 3,364
#: decimal digits, below the 4,300 that Python prints by default.
MAX_SCHUBERT_N = 100

#: (1, t, t^2, t^3) as coefficient lists, ascending powers.
_MOMENT_COMPONENTS = ((Fraction(1),), (Fraction(0), Fraction(1)),
                      (Fraction(0), Fraction(0), Fraction(1)),
                      (Fraction(0), Fraction(0), Fraction(0), Fraction(1)))


@dataclass(frozen=True)
class CurveSpec:
    """A lifted curve [0,1] -> R^4 with polynomial components."""

    kind: str
    components: tuple = _MOMENT_COMPONENTS

    def __post_init__(self):
        if self.kind not in (RATIONAL_NORMAL, POLYNOMIAL):
            raise InputError(f"unknown curve kind {self.kind!r}")
        comps = self.components if self.kind == POLYNOMIAL else _MOMENT_COMPONENTS
        comps = tuple(tuple(as_rat(c) for c in comp) for comp in comps)
        if len(comps) != 4:
            raise InputError("curve needs exactly 4 polynomial components")
        if max(map(len, comps)) > MAX_CURVE_COEFFS:
            raise InputError(f"a curve component has more than {MAX_CURVE_COEFFS} coefficients")
        object.__setattr__(self, "components", comps)

    @staticmethod
    def moment() -> "CurveSpec":
        return CurveSpec(kind=RATIONAL_NORMAL)


def _poly_derivative(coeffs: tuple, order: int) -> tuple:
    for _ in range(order):
        coeffs = tuple(coeffs[i] * i for i in range(1, len(coeffs)))
    return coeffs


def _poly_eval(coeffs: tuple, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def curve_eval(curve: CurveSpec, t, order: int = 0) -> tuple:
    """Exact value of the order-th derivative of the lift at t in [0, 1]."""
    t = as_rat(t)
    if not 0 <= t <= 1:
        raise InputError(f"parameter {t} outside the domain [0, 1]")
    if not 0 <= order <= 3:
        raise InputError(f"derivative order {order} not in 0..3")
    return tuple(_poly_eval(_poly_derivative(c, order), t) for c in curve.components)


def frenet_basis(curve: CurveSpec) -> MatQ:
    """Change of coordinates making the Wronski matrix of the lift at 0 the identity."""
    wronskian = MatQ.from_cols([curve_eval(curve, 0, order) for order in range(4)])
    if wronskian.det() == 0:
        raise NotConvex("derivative vectors at t = 0 are linearly dependent")
    return wronskian.inverse()


def _frames(curve: CurveSpec, ts, basis: MatQ) -> tuple:
    """(value, derivative) of the lift at each t, in the basis at 0: one
    product of the basis with every value and derivative column."""
    moved = basis @ MatQ.from_cols([curve_eval(curve, t, order) for t in ts for order in (0, 1)])
    return tuple((moved.col(2 * k), moved.col(2 * k + 1)) for k in range(len(ts)))


def tangent_block(curve: CurveSpec, t) -> MatQ:
    """4x2 block with columns (value, derivative) at t, in the basis at 0."""
    return _block(_frames(curve, (t,), frenet_basis(curve))[0], t)


def _block(frame: tuple, t) -> MatQ:
    block = MatQ.from_cols(frame)
    if not any(wedge(block.entries(), block.entries())):
        raise DegenerateConfiguration(f"cusp at t = {t}: value and derivative dependent")
    return block


def kappa_of(index_set) -> int:
    """Number of sample pairs {2k-1, 2k} fully contained in the index set."""
    idx = set(IndexSet.of(index_set))
    return sum(1 for k in range(1, 5) if {2 * k - 1, 2 * k} <= idx)


#: The 70 row sets of the 8x4 sample in lexicographic order, and their kappas.
_SAMPLE_ROWS = tuple(IndexSet(rows) for rows in combinations(range(1, 9), 4))
_SAMPLE_KAPPAS = tuple(kappa_of(rows) for rows in _SAMPLE_ROWS)


def _epsilon_terms() -> tuple:
    """For each sample row set I, the positions (in lexicographic order) of
    the maximal minors of the (v, d) matrix that sum to each coefficient of
    the epsilon-polynomial P_I.

    The (v, d) matrix has rows v_1, d_1, ..., v_4, d_4.  In the sample, a
    full pair {2k-1, 2k} of I has rows v_k and v_k + eps*d_k, worth v_k and
    eps*d_k: the factor eps^kappa_I.  A lone even row 2k is v_k + eps*d_k
    and splits into v_k, on row 2k-1, which I lacks, so the row order and
    the sign stay, plus eps*d_k.  The coefficient of eps^j sums over the
    ways to keep j lone even rows as d.
    """
    position = {rows: k for k, rows in enumerate(combinations(range(1, 9), 4))}
    table = []
    for rows in position:
        lone = [r for r in rows if r % 2 == 0 and r - 1 not in rows]
        table.append(tuple(
            tuple(position[tuple(r - 1 if r in lone and r not in kept else r for r in rows)]
                  for kept in combinations(lone, j))
            for j in range(len(lone) + 1)
        ))
    return tuple(table)


#: Per sample row set, the (v, d) minors feeding each power of epsilon.
_EPSILON_TERMS = _epsilon_terms()


@dataclass(frozen=True)
class SampleReport:
    ts: tuple
    epsilon: Fraction
    w: MatQ
    minors: tuple  # ((IndexSet, Fraction), ...) in lexicographic order
    kappas: tuple
    ok: bool


def _validate_ts(ts) -> tuple:
    ts = tuple(as_rat(t) for t in ts)
    if len(ts) != 4:
        raise InputError(f"need 4 parameters, got {len(ts)}")
    if not all(0 < ts[i] < 1 for i in range(4)):
        raise InputError(f"parameters must lie strictly inside (0, 1): {ts}")
    if any(ts[i] >= ts[i + 1] for i in range(3)):
        raise InputError(f"parameters must be strictly increasing: {ts}")
    return ts


def lemma_sample(curve: CurveSpec, ts, epsilon, frames: Optional[tuple] = None) -> SampleReport:
    """8x4 sample matrix with row pairs (value, value + eps*derivative) and all
    70 maximal minors (``exact.maximal_minors``) with their pair-count
    exponents.

    ``frames`` holds the (value, derivative) pair at each t in the Frenet
    basis at 0; they do not depend on epsilon, so the search passes them
    in, and they are computed here when not given.
    """
    ts = _validate_ts(ts)
    epsilon = as_rat(epsilon)
    if epsilon <= 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    shifted = tuple(t + epsilon for t in ts)
    for idx in range(3):
        if shifted[idx] >= ts[idx + 1]:
            raise InputError(f"epsilon {epsilon} breaks the sample ordering at t = {ts[idx]}")
    if shifted[3] > 1:
        raise InputError(f"epsilon {epsilon} pushes the last sample beyond the domain")
    if frames is None:
        frames = _frames(curve, ts, frenet_basis(curve))
    rows = []
    for v, d in frames:
        rows.append(v)
        rows.append(tuple(a + epsilon * b for a, b in zip(v, d)))
    w = MatQ(rows)
    values = maximal_minors(w)
    return SampleReport(
        ts=ts,
        epsilon=epsilon,
        w=w,
        minors=tuple(zip(_SAMPLE_ROWS, values)),
        kappas=_SAMPLE_KAPPAS,
        ok=all(v > 0 for v in values),
    )


def _epsilon_polynomials(frames: tuple) -> tuple:
    """Coefficients, ascending, of the 70 polynomials P_I with sample minor
    ``eps**kappa_I * P_I(eps)``, in the order of ``_SAMPLE_ROWS``.

    All of them come from the maximal minors of the (v, d) matrix, one
    ``exact.maximal_minors`` call.
    """
    base = maximal_minors(MatQ([row for frame in frames for row in frame]))
    return tuple(
        tuple(sum(base[k] for k in terms) for terms in degrees)
        for degrees in _EPSILON_TERMS
    )


def _nonpositive_below(poly: tuple, eps: Fraction) -> bool:
    """True when the polynomial is zero or negative at every eps' in (0, eps].

    With c the lowest nonzero coefficient, of degree m, and eps <= 1,
    |poly(eps') / eps'^m - c| <= eps * (sum of |higher coefficients|); so
    when that bound is below -c, poly(eps') < 0 throughout.
    """
    low = next((m for m, c in enumerate(poly) if c), None)
    if low is None:
        return True
    c = poly[low]
    return c < 0 and eps <= 1 and eps * sum(abs(h) for h in poly[low + 1:]) < -c


def _certifying_sample(curve: CurveSpec, ts, frames: Optional[tuple] = None) -> SampleReport:
    """Deterministic halving search; the first sample report that certifies
    the sampling lemma.

    The frames (as in ``lemma_sample``) are computed once, when not given;
    each halving only forms the shifted rows and reads their 70 minors
    from ``exact.maximal_minors``.  eps0 = min gap / 4 and its halvings
    keep every shifted sample inside its gap, so ``lemma_sample`` accepts
    each of them.

    After the first failed halving the search reads the 70
    epsilon-polynomials once, and stops as soon as one of them is provably
    non-positive at the next eps and every smaller one: no later halving
    could certify, so it raises a ``SearchFailure`` that names that sample
    minor I and the sign of P_I(0).  The constant term of each P_I is
    itself a sample minor free of eps, so this happens before the second
    halving or never.
    """
    ts = _validate_ts(ts)
    if frames is None:
        frames = _frames(curve, ts, frenet_basis(curve))
    gaps = [ts[i + 1] - ts[i] for i in range(3)] + [Fraction(1) - ts[3]]
    eps = min(gaps) / 4
    polys = None
    for _ in range(MAX_HALVINGS):
        for rows, kappa, poly in zip(_SAMPLE_ROWS, _SAMPLE_KAPPAS, polys or ()):
            if _nonpositive_below(poly, eps):
                raise SearchFailure(
                    f"no certifying epsilon: sample minor {rows} is eps^{kappa} * P(eps) "
                    f"with P(0) {'< 0' if poly[0] < 0 else '= 0'}, and P <= 0 on (0, {eps}]"
                )
        report = lemma_sample(curve, ts, eps, frames=frames)
        if report.ok:
            return report
        if polys is None:
            polys = _epsilon_polynomials(frames)
        eps /= 2
    raise SearchFailure(f"no certifying epsilon found after {MAX_HALVINGS} halvings")


def epsilon_threshold(curve: CurveSpec, ts) -> Fraction:
    """Deterministic halving search for an epsilon certifying the sampling lemma."""
    return _certifying_sample(curve, ts).epsilon


def tangent_config(curve: CurveSpec, ts) -> ConfigBlocks:
    """Exact tangent blocks at the four parameters, certified by the sampled basis.

    The returned columns are (value, derivative); each spans the same
    plane as the certified sample pair, since the second sample row
    differs from the first by epsilon times the derivative.
    """
    ts = _validate_ts(ts)
    frames = _frames(curve, ts, frenet_basis(curve))
    _certifying_sample(curve, ts, frames=frames)
    return ConfigBlocks(*(_block(frame, t) for frame, t in zip(frames, ts)))


@dataclass(frozen=True)
class ConvexityReport:
    grid: tuple
    failures: tuple  # ((IndexSet, Fraction), ...) non-positive determinants
    frenet_degenerate: bool
    ok: bool

    @property
    def verdict(self) -> str:
        return "sampled-consistent" if self.ok else "not-convex-witnessed"


def convexity_sample_check(curve: CurveSpec, grid_size: int) -> ConvexityReport:
    """Necessary convexity condition: every 4-point determinant on a grid is positive.

    Only a sampled check; a passing report never certifies convexity.
    """
    if not 4 <= grid_size <= MAX_GRID:
        raise InputError(f"grid size must lie in 4..{MAX_GRID}, got {grid_size}")
    grid = tuple(Fraction(i, grid_size + 1) for i in range(1, grid_size + 1))
    degenerate = False
    try:
        fb = frenet_basis(curve)
    except NotConvex:
        degenerate = True
        fb = MatQ.identity(4)
    values = (fb @ MatQ.from_cols([curve_eval(curve, t, 0) for t in grid])).transpose()
    failures = tuple(
        (IndexSet(tuple(i + 1 for i in sub)), det)
        for sub, det in zip(combinations(range(grid_size), 4), maximal_minors(values))
        if det <= 0
    )
    return ConvexityReport(
        grid=grid,
        failures=failures,
        frenet_degenerate=degenerate,
        ok=not degenerate and not failures,
    )


def schubert_count(k: int, n: int) -> int:
    """Number of (n-k-1)-planes meeting (k+1)(n-k) generic k-planes in P^n."""
    if not (isinstance(k, int) and isinstance(n, int)) or not 0 <= k < n:
        raise DomainError(f"need integers 0 <= k < n, got k={k}, n={n}")
    if n > MAX_SCHUBERT_N:
        raise DomainError(f"n = {n} exceeds the cap {MAX_SCHUBERT_N}")
    num = math.prod(math.factorial(i) for i in range(1, n - k)) * math.factorial(
        (k + 1) * (n - k)
    )
    den = math.prod(math.factorial(j) for j in range(k + 1, n + 1))
    count, rem = divmod(num, den)
    if rem:
        raise CertificateFailure(f"Schubert count {num}/{den} is not an integer")
    return count
