"""Exact scalar and small dense matrix arithmetic.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator)
and :class:`QuadNum`, the quadratic extension Q(sqrt(d)) with a fixed
radicand per context.  :class:`MatQ` is a small immutable dense matrix
over either scalar type; one Gauss-Jordan pass, ``MatQ._rref``, gives its
exact determinants, minors, inverses, ranks and nullspaces.  The pass is
fraction-free: a rational matrix is scaled to integers row by row and
eliminated with exact integer divisions (Bareiss), and each output entry
is one Fraction, so an inverse is the adjugate over the determinant.
Every maximal minor of a k x 4 rational matrix comes from one integer
kernel, :class:`MinorTable`: the Pluecker pairing of two row wedges, each
minor and each wedge made when it is first read.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .chart import plucker_meet, wedge
from .errors import (
    DimensionError,
    RadicandMismatch,
    SingularMatrixError,
    number_text,
)

Scalar = Union[int, Fraction, "QuadNum"]
#: The rational 0 of every zero entry of an inverse or a nullspace basis
#: (Fractions are immutable, so they share it).
_ZERO = Fraction(0)


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
        # the parts the solver builds are already Fractions; as_rat coerces
        # any other part, or refuses it, in the order a, b, d
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", as_rat(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", as_rat(self.b))
        d = self.d
        if type(d) is not Fraction:
            object.__setattr__(self, "d", d := as_rat(d))
        if d.numerator < 0:
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
            raise RadicandMismatch(f"mixed radicands {number_text(self.d)} and {number_text(other.d)}")
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
        rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) if isinstance(x, int) else x
                           for x in row) for row in entries)
        if not rows or not rows[0]:
            raise DimensionError("matrix must be non-empty")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DimensionError("ragged rows")
        self.rows = len(rows)
        self.cols = len(rows[0])
        self._e = rows

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
        """Exact determinant, read from the one pass ``_rref``."""
        if not self.is_square():
            raise DimensionError(f"determinant of non-square {self.rows}x{self.cols} matrix")
        _, pivots, _, det = self._rref()
        return det if len(pivots) == self.rows else self._zero_like()

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

    def _rref(self, augment: bool = False) -> tuple:
        """Fraction-free Gauss-Jordan elimination of self, or of [self | I]
        when ``augment``, pivoting in the columns of self.

        Returns ``(rows, pivots, den, det)``: the reduced row echelon form
        is ``rows`` over ``den`` entry by entry (``_over``), its pivot columns
        are ``pivots`` (0-based, increasing), and a column without a pivot is
        spanned by the columns before it.  ``det`` is the determinant when
        the matrix is square with a pivot in every column.

        A rational matrix (every entry an instance of Fraction) is
        eliminated on integers: row i is scaled by the LCM s_i of its
        denominators, and [self | I] is row i's scaled entries followed by
        s_i on the diagonal of the right half.  With p the pivot of row r
        and p' the pivot before it (1 at first), every other row i becomes
        (p * row_i - a_ic * row_r) // p', an exact division (Bareiss,
        Sylvester's identity); a row with a_ic = 0 is only rescaled,
        p * row_i // p', and left as it is when p = p'.  So every entry
        stays a minor of the scaled matrix, each pivot row ends with the
        last pivot, ``den``, in its pivot column, and det is den, negated
        once per row swap, over the product of the s_i.  Other entries
        (``QuadNum``) take the full step on every row with field division,
        on [self | I] built from the field's one and zero.
        """
        n, m = self.rows, self.cols
        if all(isinstance(x, Fraction) for row in self._e for x in row):
            a, diag, div = [], [], operator.floordiv
            for row in self._e:
                (ints,), s = integer_rows((row,))
                a.append(ints)
                diag.append(s)
            zero, scale = 0, math.prod(diag)
        else:
            a, scale, div = [list(row) for row in self._e], None, operator.truediv
            zero, diag = self._zero_like(), [self._one_like()] * n
        if augment:
            for i, row in enumerate(a):
                row += [zero] * n
                row[m + i] = diag[i]
        pivots, sign, den = [], 1, 1
        for c in range(m):
            r = len(pivots)
            if r == n:
                break
            for piv in range(r, n):
                if a[piv][c]:
                    break
            else:
                continue
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
                sign = -sign
            top = a[r]
            p = top[c]
            for i in range(n):
                if i == r:
                    continue
                f = a[i][c]
                if f or scale is None:
                    a[i] = [div(p * x - f * y, den) for x, y in zip(a[i], top)]
                elif p != den:
                    a[i] = [p * x // den for x in a[i]]
            den = p
            pivots.append(c)
        return a, pivots, den, sign * den if scale is None else Fraction(sign * den, scale)

    @staticmethod
    def _over(x, den) -> Scalar:
        """An entry of ``_rref``'s rows over its ``den``: one Fraction from two
        integers (the one ``_ZERO`` for 0), or one field division."""
        if isinstance(x, int):
            return Fraction(x, den) if x else _ZERO
        return x / den

    def inverse(self) -> "MatQ":
        """Exact inverse by Gauss-Jordan elimination of [self | I], on
        integers for a rational matrix (``_rref``); each entry is one
        division by the last pivot (``_over``), so the inverse is the
        adjugate over the determinant."""
        if not self.is_square():
            raise DimensionError("inverse of non-square matrix")
        n = self.rows
        a, pivots, den, _ = self._rref(augment=True)
        if len(pivots) < n:
            k = min(set(range(n)) - set(pivots))
            raise SingularMatrixError(
                f"matrix is singular: pivot column {k + 1} has vanishing determinant"
            )
        return MatQ([[self._over(x, den) for x in row[n:]] for row in a])

    def _one_like(self) -> Scalar:
        x = self._e[0][0]
        if isinstance(x, QuadNum):
            return QuadNum.of(1, x.d)
        return Fraction(1)

    def rank(self) -> int:
        return len(self._rref()[1])

    def nullspace(self) -> list:
        """Basis of the right kernel, as tuples of Fractions."""
        a, pivots, den, _ = self._rref()
        basis = []
        for fc in (c for c in range(self.cols) if c not in pivots):
            v = [_ZERO] * self.cols
            v[fc] = Fraction(1)
            for rr, pc in enumerate(pivots):
                v[pc] = -self._over(a[rr][fc], den)
            basis.append(tuple(v))
        return basis


def integer_rows(rows: Sequence[Sequence]) -> tuple:
    """``(ints, s)``: rational rows, of any lengths, times the LCM ``s`` of
    their denominators, so that entry j of row i is ``Fraction(ints[i][j], s)``."""
    s = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (s // v.denominator) for v in row] for row in rows], s


class MinorTable(dict):
    """The maximal minors of a k x 4 matrix read so far, on integers, keyed
    by 0-based row tuples i < j < k < l.

    Row i of the matrix is ``ints[i]`` over ``scales[i]``, every scale
    positive, so the ints alone carry every sign.  ``wedge(i, j)`` is
    ``chart.wedge`` of ints i < j, each a vector of length 4: their six 2x2
    minors, made on first read and kept in ``wedges``.  Reading a missing
    key makes the 4x4 minor of those ints, the pairing
    <wedge(i, j), wedge(k, l)> (Laplace expansion along two rows), and
    keeps it, so a reader of a few minors pays for those few and the
    wedges they pair; a reader of them all reads each key of
    ``combinations(range(k), 4)``.  ``value`` is the minor of the matrix.
    """

    __slots__ = ("ints", "scales", "wedges")

    def __init__(self, ints: Sequence[Sequence[int]], scales: Sequence[int]):
        super().__init__()
        self.ints, self.scales, self.wedges = ints, scales, {}

    def wedge(self, i: int, j: int) -> tuple:
        w = self.wedges.get((i, j))
        if w is None:
            w = self.wedges[i, j] = wedge(self.ints[i], self.ints[j])
        return w

    def __missing__(self, sub: tuple) -> int:
        i, j, k, l = sub
        value = self[sub] = plucker_meet(self.wedge(i, j), self.wedge(k, l))
        return value

    def value(self, rows: tuple, over=1) -> Fraction:
        """The maximal minor of the rational rows on ``rows``, divided by
        ``over`` (a non-zero int or Fraction): one division of two integers."""
        i, j, k, l = rows
        s = self.scales
        return Fraction(self[rows] * over.denominator, s[i] * s[j] * s[k] * s[l] * over.numerator)


def minor_table(rows: Sequence[Sequence]) -> MinorTable:
    """The minor table of a k x 4 rational matrix, given as its rows: row i
    scaled to integers by the LCM ``scales[i]`` of its denominators.

    A TP ``check_tp_config``, which reads 30 minors and the four block
    wedges, makes 19 of the 28 wedges.
    """
    scaled = [integer_rows((row,)) for row in rows]
    return MinorTable([ints for (ints,), _ in scaled], [s for _, s in scaled])
