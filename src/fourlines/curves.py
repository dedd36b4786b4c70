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
from .exact import IndexSet, MatQ, as_rat
from .totalpos import ConfigBlocks

RATIONAL_NORMAL = "rational_normal"
POLYNOMIAL = "polynomial"

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


def tangent_block(curve: CurveSpec, t, basis: Optional[MatQ] = None) -> MatQ:
    """4x2 block with columns (value, derivative) at t, in the basis at 0.

    ``basis`` is ``frenet_basis(curve)``, computed here when not given.
    """
    fb = frenet_basis(curve) if basis is None else basis
    val = MatQ.from_cols([curve_eval(curve, t, 0)])
    der = MatQ.from_cols([curve_eval(curve, t, 1)])
    block = (fb @ val).hstack(fb @ der)
    if block.rank() < 2:
        raise DegenerateConfiguration(f"cusp at t = {t}: value and derivative dependent")
    return block


def kappa_of(index_set) -> int:
    """Number of sample pairs {2k-1, 2k} fully contained in the index set."""
    idx = set(IndexSet.of(index_set))
    return sum(1 for k in range(1, 5) if {2 * k - 1, 2 * k} <= idx)


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


def lemma_sample(curve: CurveSpec, ts, epsilon, basis: Optional[MatQ] = None) -> SampleReport:
    """8x4 sample matrix with row pairs (value, value + eps*derivative) and all
    70 maximal minors with their pair-count exponents.

    ``basis`` is ``frenet_basis(curve)``, computed here when not given.
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
    fb = frenet_basis(curve) if basis is None else basis
    rows = []
    for t in ts:
        val = fb @ MatQ.from_cols([curve_eval(curve, t, 0)])
        der = fb @ MatQ.from_cols([curve_eval(curve, t, 1)])
        v = val.col(0)
        w = tuple(a + epsilon * b for a, b in zip(v, der.col(0)))
        rows.append(v)
        rows.append(w)
    w_mat = MatQ(rows)
    minors = []
    kappas = []
    ok = True
    for rows_idx in combinations(range(1, 9), 4):
        iset = IndexSet(rows_idx)
        m = w_mat.minor(iset, (1, 2, 3, 4))
        minors.append((iset, m))
        kappas.append(kappa_of(iset))
        if m <= 0:
            ok = False
    return SampleReport(
        ts=ts, epsilon=epsilon, w=w_mat, minors=tuple(minors), kappas=tuple(kappas), ok=ok
    )


def _certifying_sample(
    curve: CurveSpec, ts, max_halvings: int = 64, basis: Optional[MatQ] = None
) -> SampleReport:
    """Deterministic halving search; the first sample report that certifies
    the sampling lemma."""
    ts = _validate_ts(ts)
    fb = frenet_basis(curve) if basis is None else basis
    gaps = [ts[i + 1] - ts[i] for i in range(3)] + [Fraction(1) - ts[3]]
    eps = min(gaps) / 4
    for _ in range(max_halvings):
        try:
            report = lemma_sample(curve, ts, eps, basis=fb)
            if report.ok:
                return report
        except InputError:
            pass
        eps /= 2
    raise SearchFailure(f"no certifying epsilon found after {max_halvings} halvings")


def epsilon_threshold(curve: CurveSpec, ts, max_halvings: int = 64) -> Fraction:
    """Deterministic halving search for an epsilon certifying the sampling lemma."""
    return _certifying_sample(curve, ts, max_halvings).epsilon


def tangent_config(curve: CurveSpec, ts) -> ConfigBlocks:
    """Exact tangent blocks at the four parameters, certified by the sampled basis.

    The returned columns are (value, derivative); each spans the same
    plane as the certified sample pair, since the second sample row
    differs from the first by epsilon times the derivative.
    """
    ts = _validate_ts(ts)
    fb = frenet_basis(curve)
    _certifying_sample(curve, ts, basis=fb)
    return ConfigBlocks(*(tangent_block(curve, t, basis=fb) for t in ts))


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
    if grid_size < 4:
        raise InputError(f"grid size must be >= 4, got {grid_size}")
    grid = tuple(Fraction(i, grid_size + 1) for i in range(1, grid_size + 1))
    degenerate = False
    try:
        fb = frenet_basis(curve)
    except NotConvex:
        degenerate = True
        fb = MatQ.identity(4)
    values = [fb @ MatQ.from_cols([curve_eval(curve, t, 0)]) for t in grid]
    failures = []
    for subset in combinations(range(grid_size), 4):
        det = MatQ([values[i].col(0) for i in subset]).det()
        if det <= 0:
            failures.append((IndexSet(tuple(i + 1 for i in subset)), det))
    return ConvexityReport(
        grid=grid,
        failures=tuple(failures),
        frenet_degenerate=degenerate,
        ok=not degenerate and not failures,
    )


def schubert_count(k: int, n: int) -> int:
    """Number of (n-k-1)-planes meeting (k+1)(n-k) generic k-planes in P^n."""
    if not (isinstance(k, int) and isinstance(n, int)) or not 0 <= k < n:
        raise DomainError(f"need integers 0 <= k < n, got k={k}, n={n}")
    num = math.prod(math.factorial(i) for i in range(1, n - k)) * math.factorial(
        (k + 1) * (n - k)
    )
    den = math.prod(math.factorial(j) for j in range(k + 1, n + 1))
    count, rem = divmod(num, den)
    if rem:
        raise CertificateFailure(f"Schubert count {num}/{den} is not an integer")
    return count
