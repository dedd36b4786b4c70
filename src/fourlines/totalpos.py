"""Total positivity: configuration checks, canonical reduction, and the
16-parameter triangular factorization of totally positive 4x4 matrices
(the chart itself is ``fourlines.chart.lw_product``).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Tuple

from .errors import (
    DegenerateConfiguration,
    DimensionError,
    DomainError,
    InputError,
    NotTotallyPositive,
    number_text,
)
from .chart import lw_product
from .exact import IndexSet, MatQ, as_rat, minor_table, table_minor

#: The fixed anti-diagonal sign matrix of the canonical form [X Y].
Y_SIGN = MatQ(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [1, 0, 0, 0],
    ]
)

#: Y_SIGN as a signed permutation: row i of Y_SIGN is unit row k, negated
#: unless positive, for (k, positive) = _Y_MOVES[i].
_Y_MOVES = tuple(next((k, v > 0) for k, v in enumerate(row) if v) for row in Y_SIGN.entries())


def y_sign_times(m: MatQ) -> MatQ:
    """Y_SIGN @ m, by moving and negating the rows of m."""
    return MatQ([[x if positive else -x for x in m.row(k)] for k, positive in _Y_MOVES])


PARAM_NAMES = "abcdefghijklmnop"
#: Largest ``random_tp_instance`` bound.  The entries of a bound-10^100
#: instance reach about 2,200 characters, so every generated instance reads
#: back under ``serialize.MAX_RATIONAL_LENGTH`` (4,096); at 10^250 they
#: reach 4,479, and at 10^1000 they exceed Python's 4,300-digit print limit.
MAX_BOUND = 10**100


@dataclass(frozen=True)
class LWParams:
    """The 16 positive factorization parameters a..p (in letter order)."""

    values: Tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(as_rat(v) for v in self.values)
        if len(vals) != 16:
            raise DimensionError(f"need 16 parameters, got {len(vals)}")
        for name, v in zip(PARAM_NAMES, vals):
            if v <= 0:
                raise DomainError(f"parameter {name} = {number_text(v)} is not positive")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, name: str) -> Fraction:
        return self.values[PARAM_NAMES.index(name)]

    def as_dict(self) -> dict:
        return dict(zip(PARAM_NAMES, self.values))


@dataclass(frozen=True)
class ConfigBlocks:
    """Four 4x2 blocks spanning the four lifted tangent planes."""

    w1: MatQ
    w2: MatQ
    w3: MatQ
    w4: MatQ

    def __post_init__(self):
        for w in self.blocks():
            if w.rows != 4 or w.cols != 2:
                raise DimensionError(f"blocks must be 4x2, got {w.rows}x{w.cols}")

    def blocks(self) -> tuple:
        return (self.w1, self.w2, self.w3, self.w4)


@dataclass(frozen=True)
class TPReport:
    ok: bool
    witness_cols: Optional[IndexSet] = None
    witness_minor: Optional[Fraction] = None
    #: The canonical form the verdict was read from (None when [W3 W4] is
    #: singular).
    canonical: Optional["CanonicalForm"] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CanonicalForm:
    """Change of basis g with g*[W3 W4] = Y and the reduced matrix X = g*[W1 W2].

    ``orientation`` is the sign of det g, which is the sign of det[W3 W4].
    """

    g: MatQ
    x: MatQ
    y: MatQ
    orientation: int


#: The refusal of a configuration with a singular [W3 W4]: it has no canonical form.
SINGULAR_W34 = "[W3 W4] is singular: degenerate configuration"
#: The columns of [W3 W4] among the eight of a configuration (0-based).
_W34 = (4, 5, 6, 7)


def _canonical(blocks: ConfigBlocks, minors: dict, scales: list) -> CanonicalForm:
    """The canonical form, read from the configuration's minor table.

    g = Y*[W3 W4]^(-1), and X = g*[W1 W2] by Cramer's rule: row r of Y is
    a signed unit row that picks coordinate 3 - r of [W3 W4]^(-1) w_j, and
    the sign of that row cancels the sign of moving column j to the front,
    so X[r][j] = minor_W({j} + W34 - {8 - r}) / det[W3 W4] (1-based
    columns), with sign +1 for every r.
    """
    det34 = minors[_W34]
    if not det34:
        raise DegenerateConfiguration(SINGULAR_W34)
    x = [[Fraction(minors[(j, *(c for c in _W34 if c != 7 - r))] * scales[7 - r], det34 * scales[j])
          for j in range(4)] for r in range(4)]
    g = y_sign_times(blocks.w3.hstack(blocks.w4).inverse())
    return CanonicalForm(g=g, x=MatQ(x), y=Y_SIGN, orientation=1 if det34 > 0 else -1)


def _columns(blocks: ConfigBlocks) -> list:
    return [w.col(j) for w in blocks.blocks() for j in (0, 1)]


def check_tp_config(blocks: ConfigBlocks) -> TPReport:
    """All 70 maximal minors of the 4x8 concatenation strictly positive?

    Reports the lexicographically first non-positive minor on failure.
    All 70 come from one ``minor_table`` of the configuration's columns,
    and the witness is its integer over the four column scales.  The
    report carries the canonical form read from the same table (none when
    [W3 W4] is singular).

    A TP verdict also proves det(g) = 1/minor_W(5,6,7,8) > 0 and, since
    each minor of X is a positive multiple of a maximal minor of W, that
    X is totally positive.  So a 4x4 matrix X is checked as
    ``check_tp_config(blocks_of_canonical(X))``: the 70 maximal minors of
    [X Y] are its 69 minors and det Y = 1.
    """
    minors, scales, wedges = minor_table(_columns(blocks))
    for idx in range(4):
        if not any(wedges[2 * idx, 2 * idx + 1]):
            raise InputError(f"block W{idx + 1} is rank-deficient")
    canon = _canonical(blocks, minors, scales) if minors[_W34] else None
    for cols, v in minors.items():
        if v <= 0:
            return TPReport(False, IndexSet(tuple(c + 1 for c in cols)),
                            table_minor(minors, scales, cols), canonical=canon)
    return TPReport(True, canonical=canon)


def _square_minors(x: MatQ):
    """minor_X(R, J) of a 4x4 matrix as a function of 0-based row and column
    tuples, read from the maximal minors of [X Y].

    The columns of Y are signed unit vectors, and Y is chosen so that
    minor_X(R, J) is the maximal minor of [X Y] on the columns J and 8 - r
    for every row r not in R, with sign +1.
    """
    if x.rows != 4 or x.cols != 4:
        raise DimensionError("expected a 4x4 matrix")
    minors, scales, _ = minor_table(_columns(blocks_of_canonical(x)))
    return lambda rows, cols: table_minor(
        minors, scales, (*cols, *(7 - r for r in (3, 2, 1, 0) if r not in rows)))


def canonicalize(blocks: ConfigBlocks) -> CanonicalForm:
    """Reduce [W1 W2 W3 W4] to the form [X Y] by g = Y*[W3 W4]^(-1).

    Only reduces: the total-positivity verdict is ``check_tp_config``'s.
    """
    return _canonical(blocks, *minor_table(_columns(blocks))[:2])


def lw_compose(params: LWParams) -> MatQ:
    """Totally positive 4x4 matrix L * diag(m,n,o,p) * U from positive parameters."""
    return MatQ(lw_product(params.values))


def _positive(name: str, value: Fraction) -> Fraction:
    if value <= 0:
        raise NotTotallyPositive(f"recovered parameter {name} = {number_text(value)} is not positive")
    return value


def _nonzero(name: str, value: Fraction) -> Fraction:
    if value == 0:
        raise NotTotallyPositive(f"recovered parameter {name} vanishes (boundary of total positivity)")
    return value


def lw_factor(x: MatQ) -> LWParams:
    """Recover the 16 positive parameters of a totally positive 4x4 matrix.

    The factors of X = L * diag(m,n,o,p) * U are ratios of the initial
    minors of X (``_square_minors``): with D_k the leading principal minor
    of order k, the k-th pivot is D_k/D_(k-1), u_kj = minor_X(1..k,
    1..k-1 j)/D_k and l_ik = minor_X(1..k-1 i, 1..k)/D_k.  A zero D_k names
    the pivot that would vanish.  Then it back-solves the triangular factors
    entry by entry: c = u34, b = u24/u34, e = u23 - b, a = u14/(bc),
    d = (u13 - a u23)/e, f = u12 - d - a; and on the lower side i = l43,
    k = l42/l43, l = l41/l42, h = l32 - k, j = (l31 - l32 l)/h,
    g = l21 - j - l.
    """
    minor = _square_minors(x)
    lead = [Fraction(1)] + [minor(range(k), range(k)) for k in range(1, 5)]
    for k in range(4):
        if not lead[k + 1]:
            raise NotTotallyPositive(f"zero pivot: diagonal parameter {'mnop'[k]} would vanish")
    # u_kj and l_jk for 1-based k < j
    pairs = tuple(combinations(range(1, 5), 2))
    u = {(k, j): minor(range(k), (*range(k - 1), j - 1)) / lead[k] for k, j in pairs}
    low = {(j, k): minor((*range(k - 1), j - 1), range(k)) / lead[k] for k, j in pairs}

    c = _positive("c", _nonzero("c", u[3, 4]))
    b = _positive("b", u[2, 4] / c)
    e = _positive("e", u[2, 3] - b)
    a = _positive("a", u[1, 4] / (b * c))
    d = _positive("d", (u[1, 3] - a * u[2, 3]) / e)
    f = _positive("f", u[1, 2] - d - a)

    i = _positive("i", _nonzero("i", low[4, 3]))
    k = _positive("k", low[4, 2] / i)
    l = _positive("l", low[4, 1] / low[4, 2])
    h = _positive("h", low[3, 2] - k)
    j = _positive("j", (low[3, 1] - low[3, 2] * l) / h)
    g = _positive("g", low[2, 1] - j - l)

    m, n, o, p = (_positive("mnop"[t], lead[t + 1] / lead[t]) for t in range(4))
    params = LWParams((a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p))
    if lw_compose(params) != x:
        raise NotTotallyPositive("matrix is outside the positive factorization chart")
    return params


def blocks_of_canonical(x: MatQ) -> ConfigBlocks:
    """Blocks of [X Y]: W1, W2 the column pairs of X; W3, W4 those of Y."""
    cols = [x.col(j) for j in range(4)] + [Y_SIGN.col(j) for j in range(4)]
    return ConfigBlocks(
        MatQ.from_cols(cols[0:2]),
        MatQ.from_cols(cols[2:4]),
        MatQ.from_cols(cols[4:6]),
        MatQ.from_cols(cols[6:8]),
    )


def random_tp_instance(seed: int, bound: int = 10):
    """Deterministic totally positive instance: parameters and blocks of [X Y]."""
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    if bound > MAX_BOUND:
        raise DomainError(f"bound must be <= 10^100, got a {len(str(bound))}-digit bound")
    rng = random.Random(seed)
    params = LWParams(
        tuple(Fraction(rng.randint(1, bound), rng.randint(1, bound)) for _ in range(16))
    )
    return params, blocks_of_canonical(lw_compose(params))
