"""Convex-curve constructions: the moment curve, tangent configurations,
the epsilon-sampling certificate, sampled convexity checks, and the
Schubert count of the underlying enumerative problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import (
    CertificateFailure,
    DegenerateConfiguration,
    DomainError,
    InputError,
    NotConvex,
    SearchFailure,
    SingularMatrixError,
    number_text,
)
from .chart import proportional
from .exact import IndexSet, MatQ, MinorTable, as_rat, integer_rows
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


def _poly_derivative(coeffs: Sequence, order: int) -> tuple:
    """The order-th derivative: coefficient i moves to i - order, times i!/(i - order)!."""
    return tuple(c * math.perm(i, order) for i, c in enumerate(coeffs) if i >= order)


def _integer_points(curve: CurveSpec, ts, orders: Sequence[int] = (0, 1)) -> list:
    """(s, s * the order-th derivative of the lift at t for each order) at
    each t in [0, 1], on integers.

    At t = p/q, s = q^n * L, where n is the curve's degree (0 for the zero
    curve) and L the LCM of its coefficient denominators, so entry j of
    order o is the integer polynomial sum_i L * c^(o)_(j,i) * p^i * q^(n-i).
    """
    comps = curve.components
    n = max(1, *map(len, comps)) - 1
    ints, lcm = integer_rows(comps)
    tables = [[_poly_derivative(c, order) for c in ints] for order in orders]
    points = []
    for t in ts:
        t = as_rat(t)
        if not 0 <= t <= 1:
            raise InputError(f"parameter {t} outside the domain [0, 1]")
        p, q = t.numerator, t.denominator
        weights = [p**i * q**(n - i) for i in range(n + 1)]
        points.append((q**n * lcm, *(tuple(sum(map(mul, c, weights)) for c in table)
                                     for table in tables)))
    return points


def curve_eval(curve: CurveSpec, t, order: int = 0) -> tuple:
    """Exact value of the order-th derivative of the lift at t in [0, 1]."""
    if not 0 <= order <= 3:
        raise InputError(f"derivative order {order} not in 0..3")
    (s, value), = _integer_points(curve, (t,), (order,))
    return tuple(Fraction(x, s) for x in value)


def frenet_basis(curve: CurveSpec) -> MatQ:
    """Change of coordinates making the Wronski matrix W0 of the lift at 0
    the identity: W0^-1.  Column o of W0 is the o-th derivative at 0, and
    ``_integer_points`` gives it times s."""
    (s, *cols), = _integer_points(curve, (0,), range(4))
    try:
        return MatQ.from_cols([[Fraction(v, s) for v in col] for col in cols]).inverse()
    except SingularMatrixError:
        raise NotConvex("derivative vectors at t = 0 are linearly dependent") from None


class _Frames(NamedTuple):
    """The (value, derivative) of the lift at each t in curve coordinates,
    on integers, and the way to the Frenet basis at 0.

    ``points[k]`` is (s, V, D), s > 0 times the value and the derivative at
    t_k (``_integer_points``).  The Frenet basis W0^-1 is ``basis`` over
    ``basis_den``.  Rows in curve coordinates have det W0 times the maximal
    minors of the same rows in the Frenet basis (the determinant is
    multiplicative), so no minor needs the basis.
    """

    points: tuple
    basis: list
    basis_den: int
    det_w0: Fraction

    def frenet(self, row, scale: int) -> tuple:
        """The curve-coordinate vector row / scale in the Frenet basis at 0,
        with one division per entry."""
        den = self.basis_den * scale
        return tuple(Fraction(sum(map(mul, b, row)), den) for b in self.basis)


def _det_w0(curve: CurveSpec) -> Fraction:
    """det W0, the one minor of the table of its four integer columns, each
    over s."""
    (s, *cols), = _integer_points(curve, (0,), range(4))
    return MinorTable(cols, (s,) * 4).value((0, 1, 2, 3))


def _frames(curve: CurveSpec, ts) -> _Frames:
    basis = frenet_basis(curve)
    ints, den = integer_rows(basis.entries())
    return _Frames(points=tuple(_integer_points(curve, ts)), basis=ints, basis_den=den,
                   det_w0=_det_w0(curve))


def tangent_block(curve: CurveSpec, t) -> MatQ:
    """4x2 block with columns (value, derivative) at t, in the basis at 0."""
    frames = _frames(curve, (t,))
    (s, v, d), = frames.points
    if proportional(v, d):
        raise DegenerateConfiguration(f"cusp at t = {t}: value and derivative dependent")
    return MatQ.from_cols([frames.frenet(v, s), frames.frenet(d, s)])


def kappa_of(index_set) -> int:
    """Number of sample pairs {2k-1, 2k} fully contained in the index set."""
    idx = set(IndexSet.of(index_set))
    return sum(1 for k in range(1, 5) if {2 * k - 1, 2 * k} <= idx)


#: The 70 row sets of the 8x4 sample in lexicographic order, and their kappas.
_SAMPLE_ROWS = tuple(IndexSet(rows) for rows in combinations(range(1, 9), 4))
_SAMPLE_KAPPAS = tuple(kappa_of(rows) for rows in _SAMPLE_ROWS)


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


def lemma_sample(curve: CurveSpec, ts, epsilon, frames: Optional[_Frames] = None) -> SampleReport:
    """8x4 sample matrix with row pairs (value, value + eps*derivative) in
    the Frenet basis at 0, and all 70 maximal minors with their pair-count
    exponents.

    ``frames`` (``_frames``) holds the curve-coordinate (value, derivative)
    pair at each t on integers; they do not depend on epsilon, so the
    search passes them in, and they are computed here when not given.  For
    eps = a/b the sample rows are V_k over s_k and b*V_k + a*D_k over
    b*s_k, one ``exact.MinorTable``; each printed minor is its value over
    det W0.  The minors of a report that fails are all the search needs to
    refuse (``_certifying_sample``).
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
        frames = _frames(curve, ts)
    a, b = epsilon.numerator, epsilon.denominator
    rows, scales = [], []
    for s, v, d in frames.points:
        rows += (v, tuple(b * x + a * y for x, y in zip(v, d)))
        scales += (s, b * s)
    table = MinorTable(rows, scales)
    minors = tuple((idx, table.value(sub, frames.det_w0))
                   for idx, sub in zip(_SAMPLE_ROWS, combinations(range(8), 4)))
    sign = 1 if frames.det_w0 > 0 else -1  # of each printed minor over its integer m
    return SampleReport(
        ts=ts,
        epsilon=epsilon,
        w=MatQ([frames.frenet(row, s) for row, s in zip(rows, scales)]),
        minors=minors,
        kappas=_SAMPLE_KAPPAS,
        ok=all(m * sign > 0 for m in table.values()),
    )


#: ((curve, ts), report) of the last report ``_certifying_sample``
#: certified, held for one reuse; None when there is none.
_last_certified: Optional[tuple] = None


def _certifying_sample(curve: CurveSpec, ts) -> SampleReport:
    """Deterministic halving search; the first sample report that certifies
    the sampling lemma.

    The last report it certified is reused once: a call that finds it held
    for the same curve and ts (equal by value) returns it and runs no
    search, so ``curve-sample --epsilon auto`` then ``tangent_config`` on
    one curve and ts search once.  Every call empties the holder and only
    a search refills it, so a repeated pair pays for its own search and at
    most one report is held.  The search is a function of the values of
    the curve and ts, and a report is immutable and passed every check
    when it was made, so the reused report is the one a search would give.

    The frames (as in ``lemma_sample``) are computed once; each halving
    only forms the shifted integer rows and reads their 70 minors from one
    ``exact.MinorTable``.  eps0 = min gap / 4 and its halvings
    keep every shifted sample inside its gap, so ``lemma_sample`` accepts
    each of them.

    A row set I with no lone even row (each even row 2k comes with 2k-1)
    has sample minor eps^kappa_I * c_I, with c_I free of eps: its full
    pairs give v_k and eps*d_k, its odd rows v_k.  When such a minor of a
    failed sample is not positive, no eps certifies, so before its next
    halving the search raises a ``SearchFailure`` naming the first such I
    and the sign of c_I.  Every other minor is eps^kappa_I * P_I(eps) with
    P_I(0) the c of an eps-free set, so when all those c are positive a
    small enough eps certifies: the search refuses after one halving or
    never.
    """
    global _last_certified
    ts = _validate_ts(ts)
    held, _last_certified = _last_certified, None
    if held is not None and held[0] == (curve, ts):
        return held[1]
    frames = _frames(curve, ts)
    gaps = [ts[i + 1] - ts[i] for i in range(3)] + [Fraction(1) - ts[3]]
    eps = min(gaps) / 4
    report = None
    for _ in range(MAX_HALVINGS):
        # kappa_I counts every even row of I exactly when I is eps-free
        for (rows, minor), kappa in zip(report.minors if report else (), _SAMPLE_KAPPAS):
            if minor <= 0 and kappa == sum(1 - r % 2 for r in rows):
                raise SearchFailure(
                    f"no certifying epsilon: sample minor {rows} is eps^{kappa} * P(eps) "
                    f"with P(0) {'< 0' if minor < 0 else '= 0'}, and P <= 0 on (0, {eps}]"
                )
        report = lemma_sample(curve, ts, eps, frames=frames)
        if report.ok:
            _last_certified = (curve, ts), report
            return report
        eps /= 2
    raise SearchFailure(f"no certifying epsilon found after {MAX_HALVINGS} halvings")


def epsilon_threshold(curve: CurveSpec, ts) -> Fraction:
    """Deterministic halving search for an epsilon certifying the sampling lemma."""
    return _certifying_sample(curve, ts).epsilon


def tangent_config(curve: CurveSpec, ts) -> ConfigBlocks:
    """The tangent lines at the four parameters, as the certified sample.

    Block k has the columns (v_k, v_k + eps*d_k), rows 2k-1 and 2k of the
    certifying sample's W, so the configuration's 70 maximal minors are
    the sample's, all positive, and ``check_tp_config`` verifies them.
    Block k spans the same plane as ``tangent_block`` at t_k.  A cusp at
    t_k zeroes every sample minor that holds both rows of pair k, so the
    search refuses it.  Right after ``curve-sample --epsilon auto`` on the
    same curve and ts, the sample it certified is reused and no search runs
    (``_certifying_sample``).
    """
    w = _certifying_sample(curve, ts).w
    return ConfigBlocks(*(MatQ.from_cols([w.row(2 * k), w.row(2 * k + 1)]) for k in range(4)))


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
    det_w0 = _det_w0(curve)
    degenerate = det_w0 == 0  # no Frenet basis: the minors are read in curve coordinates
    det_w0 = det_w0 or Fraction(1)
    points = _integer_points(curve, grid, (0,))
    table = MinorTable([v for _, v in points], [s for s, _ in points])
    sign = 1 if det_w0 > 0 else -1
    failures = tuple((IndexSet(tuple(i + 1 for i in sub)), table.value(sub, det_w0))
                     for sub in combinations(range(grid_size), 4) if table[sub] * sign <= 0)
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
        raise CertificateFailure(f"Schubert count {number_text(num)}/{number_text(den)} is not an integer")
    return count
