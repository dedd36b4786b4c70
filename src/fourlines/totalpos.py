"""Total positivity: configuration checks, canonical reduction, and the
16-parameter triangular factorization of totally positive 4x4 matrices
(the chart itself is ``fourlines.chart.lw_product``).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod
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
from .exact import IndexSet, MatQ, MinorTable, as_rat, minor_table

#: The fixed anti-diagonal sign matrix of the canonical form [X Y].
Y_SIGN = MatQ(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [1, 0, 0, 0],
    ]
)

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
        """The parameter named by one letter a..p; KeyError for any other key."""
        return self.as_dict()[name]

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
    ``table`` is the configuration's ``MinorTable`` that X was read from
    (``minor_table`` of its eight columns), so every minor of X
    (``x_minor``) and each block's wedge is one more read of it.
    """

    g: MatQ
    x: MatQ
    y: MatQ
    orientation: int
    table: MinorTable = field(compare=False, repr=False)


#: The refusal of a configuration with a singular [W3 W4]: it has no canonical form.
SINGULAR_W34 = "[W3 W4] is singular: degenerate configuration"
#: The columns of [W3 W4] among the eight of a configuration (0-based).
_W34 = (4, 5, 6, 7)


@cache
def _xy_columns(rows, cols) -> tuple:
    """The columns (0-based, increasing) of [X Y] whose maximal minor is
    minor_X(rows, cols), with sign +1: the columns of X in ``cols`` and
    column 7 - r of Y for each row r of X not in ``rows``.  The columns of Y
    are signed unit vectors, chosen so that every sign is +1."""
    return (*cols, *(7 - r for r in (3, 2, 1, 0) if r not in rows))


def x_minor(table: MinorTable, rows, cols) -> tuple:
    """minor_X(rows, cols) of the canonical X as integers (n, d), d > 0,
    read from the configuration's minor table by Cramer's rule: it is the
    maximal minor of W on C = _xy_columns(rows, cols) over det[W3 W4].  With
    m34 = table[W34], n is sign(m34) * table[C] times the scales of the
    columns 7 - r of Y, r in ``rows``, that C leaves out, and d is |m34|
    times the scales of ``cols``."""
    n, d, scales = table[_xy_columns(rows, cols)], table[_W34], table.scales
    for r in rows:
        n *= scales[7 - r]
    for j in cols:
        d *= scales[j]
    return (n, d) if d > 0 else (-n, -d)


def _canonical(blocks: ConfigBlocks, table: MinorTable) -> CanonicalForm:
    """The canonical form, read from the configuration's minor table.

    Each entry of X = g*[W1 W2] is a 1x1 minor (``x_minor``):
    X[r][j] = minor_W(j, W34 - {7 - r}) / det[W3 W4] (0-based columns),
    and g = Y*[W3 W4]^(-1) is the inverse of [W3 W4]*Y^T = [-w4b w4a -w3b w3a].
    """
    det34 = table[_W34]
    if not det34:
        raise DegenerateConfiguration(SINGULAR_W34)
    x = [[Fraction(*x_minor(table, (r,), (j,))) for j in range(4)] for r in range(4)]
    w34 = zip(blocks.w3.entries(), blocks.w4.entries())
    g = MatQ([(-b4, a4, -b3, a3) for (a3, b3), (a4, b4) in w34]).inverse()
    return CanonicalForm(g=g, x=MatQ(x), y=Y_SIGN, orientation=1 if det34 > 0 else -1, table=table)


def _columns(blocks: ConfigBlocks) -> list:
    return [col for w in blocks.blocks() for col in zip(*w.entries())]


def check_tp_config(blocks: ConfigBlocks) -> TPReport:
    """All 70 maximal minors of the 4x8 concatenation strictly positive?

    The minors are pairings of the column wedges in one ``MinorTable``,
    each made when first read.  With g*W = [X Y] and det g =
    1/det[W3 W4], every maximal minor of W is det[W3 W4] times a minor of
    X (``_xy_columns``), so W is totally positive exactly when
    det[W3 W4] > 0 and X is totally positive, which its 16 chamber minors
    decide (``_RATIOS``; Fomin and Zelevinsky 1999): when they are
    positive, so are the 16 parameters, X is their chart product, and each
    minor of that product has positive coefficients in them.  A TP verdict
    reads those 17 pairings (``_VERDICT``), and the canonical form the
    report carries (none when [W3 W4] is singular) reads the 13 other
    entries of X: 30 of the 70.  Only a failure scans the 70 in
    lexicographic order, up to the first non-positive one; that witness is
    its integer over the four column scales.

    A TP verdict also proves det(g) > 0 and that X is totally positive.
    So a 4x4 matrix X is checked as ``check_tp_config(blocks_of_canonical(X))``:
    the 70 maximal minors of [X Y] are its 69 minors and det Y = 1.
    """
    table = minor_table(_columns(blocks))
    for idx in range(4):
        if not any(table.wedge(2 * idx, 2 * idx + 1)):
            raise InputError(f"block W{idx + 1} is rank-deficient")
    canon = _canonical(blocks, table) if table[_W34] else None
    if all(table[cols] > 0 for cols in _VERDICT):
        return TPReport(True, canonical=canon)
    # one of those 17 is not positive, so the scan stops
    cols = next(cols for cols in combinations(range(8), 4) if table[cols] <= 0)
    return TPReport(False, IndexSet(tuple(c + 1 for c in cols)), table.value(cols), canonical=canon)


def canonicalize(blocks: ConfigBlocks) -> CanonicalForm:
    """Reduce [W1 W2 W3 W4] to the form [X Y] by g = Y*[W3 W4]^(-1).

    Only reduces: the total-positivity verdict is ``check_tp_config``'s.
    """
    return _canonical(blocks, minor_table(_columns(blocks)))


def lw_compose(params: LWParams) -> MatQ:
    """Totally positive 4x4 matrix L * diag(m,n,o,p) * U from positive parameters."""
    return MatQ(lw_product(params.values))


def _minors(spec: str) -> tuple:
    """'1|4 12|12' -> (((0,), (3,)), ((0, 1), (0, 1))): 1-based [rows|cols] as 0-based pairs."""
    return tuple(tuple(tuple(int(t) - 1 for t in part) for part in m.split("|")) for m in spec.split())


#: Each parameter of X = L * diag(m,n,o,p) * U as one ratio of products of
#: minors of X, 1-based [rows|cols]; g..l are the transposes of f, e, c, d,
#: b, a.  In this order, each denominator was shown non-zero before.  Its 16
#: distinct minors, ``_CHAMBER``, are chamber minors (Berenstein, Fomin and
#: Zelevinsky, Adv. Math. 122, 1996; Fomin and Zelevinsky, J. AMS 12, 1999).
_RATIOS = {name: (_minors(num), _minors(den)) for name, num, den in (
    ("c", "123|124", "123|123"),
    ("b", "12|14 123|123", "12|12 123|124"),
    ("e", "123|134", "123|124"),
    ("a", "1|4 12|12", "1|1 12|14"),
    ("d", "12|34 123|124", "12|14 123|134"),
    ("f", "123|234", "123|134"),
    ("i", "124|123", "123|123"),
    ("k", "14|12 123|123", "12|12 124|123"),
    ("l", "4|1 12|12", "1|1 14|12"),
    ("h", "134|123", "124|123"),
    ("j", "34|12 124|123", "14|12 134|123"),
    ("g", "234|123", "134|123"),
    ("m", "1|1", ""),
    ("n", "12|12", "1|1"),
    ("o", "123|123", "12|12"),
    ("p", "1234|1234", "123|123"),
)}
_CHAMBER = tuple(dict.fromkeys(key for num, den in _RATIOS.values() for key in num + den))
#: [W3 W4] and the chamber minors of X as columns of [X Y]: they decide a TP verdict.
_VERDICT = (_W34, *(_xy_columns(*key) for key in _CHAMBER))


def lw_factor(x: MatQ) -> LWParams:
    """Recover the 16 positive parameters of a totally positive 4x4 matrix.

    Each is one ratio of products of chamber minors of X (``_RATIOS``), each minor
    read once, in lowest terms, from the maximal minors of [X Y] (``x_minor``;
    det Y = 1).  A zero leading principal minor names the pivot that would
    vanish; then the parameters are checked in the order of ``_RATIOS``, so
    no denominator is zero, and X is recomposed from them as a certificate.
    """
    if x.rows != 4 or x.cols != 4:
        raise DimensionError("expected a 4x4 matrix")
    table = minor_table(_columns(blocks_of_canonical(x)))
    minor = {key: Fraction(*x_minor(table, *key)).as_integer_ratio() for key in _CHAMBER}
    for name in "mnop":  # their numerators are the leading principal minors
        if not minor[_RATIOS[name][0][0]][0]:
            raise NotTotallyPositive(f"zero pivot: diagonal parameter {name} would vanish")
    values = {}
    for name, (num, den) in _RATIOS.items():
        pairs = [minor[key] for key in num] + [minor[key][::-1] for key in den]
        value = values[name] = Fraction(prod(n for n, _ in pairs), prod(d for _, d in pairs))
        if value == 0 and name in "ci":
            raise NotTotallyPositive(f"recovered parameter {name} vanishes (boundary of total positivity)")
        if value <= 0:
            raise NotTotallyPositive(f"recovered parameter {name} = {number_text(value)} is not positive")
    params = LWParams(tuple(values[name] for name in PARAM_NAMES))
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
