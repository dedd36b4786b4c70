"""Exact scalar and small dense matrix arithmetic.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator)
and :class:`QuadNum`, the quadratic extension Q(sqrt(d)) with a fixed
radicand per context.  :class:`MatQ` is a small immutable dense matrix
over either scalar type, with exact determinants, minors and inverses.
Every maximal minor of a k x 4 rational matrix comes from one integer
kernel, ``minor_table``: the Pluecker pairing of two row wedges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from .chart import plucker_meet, wedge
from .errors import (
    DimensionError,
    RadicandMismatch,
    SingularMatrixError,
)

Scalar = Union[int, Fraction, "QuadNum"]


def as_rat(x) -> Fraction:
    """Coerce an int / Fraction / rational QuadNum to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, QuadNum):
        if x.b != 0:
            raise RadicandMismatch("quadratic number with irrational part is not rational")
        return x.a
    raise TypeError(f"not a rational scalar: {x!r}")


def rational_sqrt(r: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None if irrational."""
    if r < 0:
        return None
    num, den = r.numerator, r.denominator
    sn, sd = math.isqrt(num), math.isqrt(den)
    if sn * sn == num and sd * sd == den:
        return Fraction(sn, sd)
    return None


@dataclass(frozen=True)
class QuadNum:
    """a + b*sqrt(d) with rational a, b and a fixed non-negative radicand d.

    The radicand is not reduced to square-free form; all values combined
    arithmetically must share the same d (a value with b = 0 embeds into
    any context).
    """

    a: Fraction
    b: Fraction
    d: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_rat(self.a) if not isinstance(self.a, Fraction) else self.a)
        object.__setattr__(self, "b", as_rat(self.b) if not isinstance(self.b, Fraction) else self.b)
        object.__setattr__(self, "d", as_rat(self.d) if not isinstance(self.d, Fraction) else self.d)
        if self.d < 0:
            raise RadicandMismatch("negative radicand: values would not be real")

    @staticmethod
    def of(value, d) -> "QuadNum":
        """Embed a rational value into the field with radicand d."""
        return QuadNum(as_rat(value), Fraction(0), as_rat(d))

    def _join(self, other: Scalar) -> "QuadNum":
        if isinstance(other, (int, Fraction)):
            return QuadNum(as_rat(other), Fraction(0), self.d)
        if isinstance(other, QuadNum):
            if other.b == 0:
                return QuadNum(other.a, Fraction(0), self.d)
            if self.b == 0 or self.d == other.d:
                return other
            raise RadicandMismatch(f"mixed radicands {self.d} and {other.d}")
        return NotImplemented  # type: ignore[return-value]

    def _ctx(self, other: "QuadNum") -> Fraction:
        return self.d if self.b != 0 or other.b == 0 else other.d

    def __add__(self, other):
        o = self._join(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.a + o.a, self.b + o.b, self._ctx(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._join(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.a - o.a, self.b - o.b, self._ctx(o))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._join(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._ctx(o)
        return QuadNum(self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        nrm = self.norm()
        if nrm == 0:
            if self.a == 0 and self.b == 0:
                raise ZeroDivisionError("division by zero quadratic number")
            raise ArithmeticError(
                "zero-divisor: radicand is a perfect square and the conjugate vanishes"
            )
        return QuadNum(self.a / nrm, -self.b / nrm, self.d)

    def __truediv__(self, other):
        o = self._join(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._ctx(o)
        return self * QuadNum(o.a, o.b, d).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadNum):
            if self.a != other.a or self.b != other.b:
                return False
            return self.b == 0 or self.d == other.d
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def conjugate(self) -> "QuadNum":
        return QuadNum(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """(a + b sqrt d)(a - b sqrt d) = a^2 - d b^2."""
        return self.a * self.a - self.d * self.b * self.b

    def approx(self) -> Optional[float]:
        """The value as a float, or None outside the float range."""
        try:
            value = float(self.a) + float(self.b) * math.sqrt(float(self.d))
        except OverflowError:
            return None
        return value if math.isfinite(value) else None

    def same_value(self, other) -> bool:
        """Exact value equality across possibly different radicand contexts."""
        if isinstance(other, (int, Fraction)):
            other = QuadNum.of(other, self.d)
        ra = self.a + self.b * rational_sqrt(self.d) if rational_sqrt(self.d) is not None and self.b != 0 else None
        rb = other.a + other.b * rational_sqrt(other.d) if rational_sqrt(other.d) is not None and other.b != 0 else None
        u = QuadNum.of(ra, self.d) if ra is not None else self
        v = QuadNum.of(rb, other.d) if rb is not None else other
        if u.a != v.a:
            return False
        if u.b == 0 and v.b == 0:
            return True
        if (u.b > 0) != (v.b > 0):
            return False
        return u.b * u.b * u.d == v.b * v.b * v.d

    def __repr__(self):
        if self.b == 0:
            return f"QuadNum({self.a})"
        return f"QuadNum({self.a} + {self.b}*sqrt({self.d}))"


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing 1-based row/column positions."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 1 for i in idx):
            raise DimensionError(f"indices must be 1-based positive: {idx}")
        if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
            raise DimensionError(f"indices must be strictly increasing: {idx}")
        object.__setattr__(self, "indices", idx)

    @staticmethod
    def of(it: Iterable[int]) -> "IndexSet":
        return it if isinstance(it, IndexSet) else IndexSet(tuple(it))

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def __str__(self):
        return "{" + ",".join(map(str, self.indices)) + "}"


class MatQ:
    """Immutable dense matrix over exact scalars (Fraction or QuadNum)."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        rows = tuple(tuple(self._norm(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise DimensionError("matrix must be non-empty")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DimensionError("ragged rows")
        self.rows = len(rows)
        self.cols = len(rows[0])
        self._e = rows

    @staticmethod
    def _norm(x):
        if isinstance(x, int):
            return Fraction(x)
        return x

    @staticmethod
    def identity(n: int) -> "MatQ":
        return MatQ([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(cols: Sequence[Sequence[Scalar]]) -> "MatQ":
        n = len(cols[0])
        return MatQ([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self._e[i][j]

    def row(self, i: int) -> tuple:
        return self._e[i]

    def col(self, j: int) -> tuple:
        return tuple(self._e[i][j] for i in range(self.rows))

    def entries(self) -> tuple:
        return self._e

    def __eq__(self, other):
        if not isinstance(other, MatQ):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._e)
        return f"MatQ[{body}]"

    def __matmul__(self, other: "MatQ") -> "MatQ":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ocols = [other.col(j) for j in range(other.cols)]
        return MatQ(
            [
                [sum((a * b for a, b in zip(row, oc)), Fraction(0)) for oc in ocols]
                for row in self._e
            ]
        )

    def transpose(self) -> "MatQ":
        return MatQ([self.col(j) for j in range(self.cols)])

    def hstack(self, other: "MatQ") -> "MatQ":
        if self.rows != other.rows:
            raise DimensionError("row counts differ in hstack")
        return MatQ([r1 + r2 for r1, r2 in zip(self._e, other._e)])

    def submatrix(self, I, J) -> "MatQ":
        I, J = IndexSet.of(I), IndexSet.of(J)
        if (I.indices and I.indices[-1] > self.rows) or (J.indices and J.indices[-1] > self.cols):
            raise DimensionError(f"index out of range for {self.rows}x{self.cols} matrix")
        return MatQ([[self._e[i - 1][j - 1] for j in J] for i in I])

    def map(self, fn) -> "MatQ":
        return MatQ([[fn(x) for x in row] for row in self._e])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> Scalar:
        """Exact determinant by fraction-free (Bareiss) elimination with pivoting."""
        if not self.is_square():
            raise DimensionError(f"determinant of non-square {self.rows}x{self.cols} matrix")
        n = self.rows
        a = [list(row) for row in self._e]
        sign = 1
        prev: Scalar = Fraction(1)
        for k in range(n - 1):
            if not a[k][k]:
                for r in range(k + 1, n):
                    if a[r][k]:
                        a[k], a[r] = a[r], a[k]
                        sign = -sign
                        break
                else:
                    return self._zero_like()
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
                a[i][k] = self._zero_like()
            prev = a[k][k]
        return a[n - 1][n - 1] if sign == 1 else -a[n - 1][n - 1]

    def _zero_like(self) -> Scalar:
        x = self._e[0][0]
        if isinstance(x, QuadNum):
            return QuadNum.of(0, x.d)
        return Fraction(0)

    def minor(self, I, J) -> Scalar:
        I, J = IndexSet.of(I), IndexSet.of(J)
        if len(I) != len(J):
            raise DimensionError(f"minor needs |I| = |J|, got {len(I)} and {len(J)}")
        return self.submatrix(I, J).det()

    def _rref(self, right: Optional[list] = None) -> tuple:
        """Gauss-Jordan elimination of [self | right], pivoting in the columns of self.

        Returns the reduced rows and the pivot columns (0-based, increasing);
        a column without a pivot is spanned by the columns before it.
        """
        if right is None:
            a = [list(row) for row in self._e]
        else:
            a = [list(row) + extra for row, extra in zip(self._e, right)]
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            if r == self.rows:
                break
            for piv in range(r, self.rows):
                if a[piv][c]:
                    break
            else:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = self._invert_scalar(a[r][c])
            a[r] = [x * inv for x in a[r]]
            for i in range(self.rows):
                if i != r and a[i][c]:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivots.append(c)
        return a, pivots

    def inverse(self) -> "MatQ":
        """Exact inverse by Gauss-Jordan elimination of [self | I]."""
        if not self.is_square():
            raise DimensionError("inverse of non-square matrix")
        n = self.rows
        one, zero = self._one_like(), self._zero_like()
        a, pivots = self._rref([[one if i == j else zero for j in range(n)] for i in range(n)])
        if len(pivots) < n:
            k = min(set(range(n)) - set(pivots))
            raise SingularMatrixError(
                f"matrix is singular: pivot column {k + 1} has vanishing determinant"
            )
        return MatQ([row[n:] for row in a])

    def _one_like(self) -> Scalar:
        x = self._e[0][0]
        if isinstance(x, QuadNum):
            return QuadNum.of(1, x.d)
        return Fraction(1)

    @staticmethod
    def _invert_scalar(x: Scalar) -> Scalar:
        if isinstance(x, QuadNum):
            return x.inverse()
        return Fraction(1) / x

    def rank(self) -> int:
        return len(self._rref()[1])

    def nullspace(self) -> list:
        """Basis of the right kernel, as tuples of Fractions."""
        a, pivots = self._rref()
        basis = []
        for fc in (c for c in range(self.cols) if c not in pivots):
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for rr, pc in enumerate(pivots):
                v[pc] = -a[rr][fc]
            basis.append(tuple(v))
        return basis


def minor_table(rows: Sequence[Sequence]) -> tuple:
    """The integer table behind the maximal minors of a k x 4 rational matrix,
    given as its rows.

    Returns ``(minors, scales, wedges)``, keyed by 0-based row tuples in
    lexicographic order.  Row i is scaled to integers by the LCM
    ``scales[i]`` of its denominators; ``wedges[i, j]`` holds the six 2x2
    minors of scaled rows i < j, and ``minors[i, j, k, l]`` the 4x4 minor
    on scaled rows i < j < k < l, read as the pairing
    ``<wedges[i, j], wedges[k, l]>``: Laplace expansion along two rows.  So
    that minor of the matrix itself is ``Fraction(minors[R],
    prod(scales[i] for i in R))``, and the ints alone carry every sign.
    """
    a, scales = [], []
    for row in rows:
        s = math.lcm(*(v.denominator for v in row))
        scales.append(s)
        a.append([v.numerator * (s // v.denominator) for v in row])
    wedges = {}
    for i, j in combinations(range(len(a)), 2):
        pair = tuple(zip(a[i], a[j]))
        wedges[i, j] = wedge(pair, pair)
    minors = {sub: plucker_meet(wedges[sub[:2]], wedges[sub[2:]])
              for sub in combinations(range(len(a)), 4)}
    return minors, scales, wedges


def maximal_minors(m: MatQ) -> list:
    """Exact maximal minors of a k x 4 rational matrix.

    One value per 4-row set, in lexicographic order, read from
    ``minor_table``: each equals ``MatQ.minor`` on those rows.
    """
    minors, scales, _ = minor_table(m.entries())
    return [Fraction(v, math.prod(scales[i] for i in sub)) for sub, v in minors.items()]
