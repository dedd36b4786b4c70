"""The benchmark's own exact arithmetic, written apart from ``fourlines``.

The correctness checks use these functions instead of the library's, so a
fault in the library's kernel cannot hide itself.  Quadratic numbers are
triples ``(a, b, d)`` of Fractions meaning ``a + b*sqrt(d)``; every value
in one computation shares the same ``d``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

#: Row pairs of a 4x2 span, in Pluecker order (12, 13, 14, 23, 24, 34).
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
#: The 70 column sets of a 4x8 matrix, in lexicographic order (0-based).
COLSETS = tuple(combinations(range(8), 4))


def rat(text) -> Fraction:
    """Parse the CLI's rational literal ``"p"`` or ``"p/q"``."""
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den) if den else 1)


def rat_str(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def det4_laplace(cols) -> Fraction:
    """Determinant of a 4x4 matrix given as four columns, by Laplace
    expansion along the row pairs (1,2) and (3,4)."""
    total = 0
    for pick in combinations(range(4), 2):
        rest = tuple(j for j in range(4) if j not in pick)
        (p, q), (r, s) = pick, rest
        top = cols[p][0] * cols[q][1] - cols[q][0] * cols[p][1]
        bottom = cols[r][2] * cols[s][3] - cols[s][2] * cols[r][3]
        # sign of the column permutation (pick + rest)
        inversions = sum(1 for x in pick for y in rest if x > y)
        total += (-1) ** inversions * top * bottom
    return total


def config_columns(blocks) -> list:
    """The 8 columns of [W1 W2 W3 W4], each a 4-tuple of Fractions."""
    cols = []
    for block in blocks:
        for j in range(2):
            cols.append(tuple(block[i][j] for i in range(4)))
    return cols


def tp_scan(blocks):
    """All 70 maximal minors of the configuration, in lexicographic order.

    Returns ``(position, cols, minor)`` of the first non-positive minor
    (1-based columns), or ``None`` when the configuration is totally
    positive.  Columns are scaled to integers first; a positive scale
    keeps each minor's sign and is divided out of the reported value.
    """
    cols = config_columns(blocks)
    scales = [math.lcm(*(x.denominator for x in c)) for c in cols]
    icols = [tuple(int(x * s) for x in c) for c, s in zip(cols, scales)]
    for pos, cs in enumerate(COLSETS):
        m = det4_laplace([icols[c] for c in cs])
        if m <= 0:
            scale = math.prod(scales[c] for c in cs)
            return pos, tuple(c + 1 for c in cs), Fraction(m, scale)
    return None


def block_rank_ok(block) -> bool:
    """A 4x2 block has rank 2 iff some 2x2 row minor is non-zero."""
    return any(block[r][0] * block[s][1] - block[s][0] * block[r][1] for r, s in PAIRS)


# -- the quadratic field Q(sqrt d) -------------------------------------------

def q_mul(u, v, d):
    return (u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def q_sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def q_is_zero(u, d) -> bool:
    """Exact test of a + b*sqrt(d) == 0."""
    a, b = u
    if b == 0:
        return a == 0
    root = _rational_sqrt(d)
    if root is None:
        return a == 0 and b == 0
    return a + b * root == 0


def _rational_sqrt(d: Fraction):
    n, m = math.isqrt(d.numerator), math.isqrt(d.denominator)
    if n * n == d.numerator and m * m == d.denominator:
        return Fraction(n, m)
    return None


def q_real(u, d) -> tuple:
    """Canonical (rational part, signed square of the irrational part), so
    values from fields with different radicands compare exactly."""
    a, b = u
    root = _rational_sqrt(d) if b else None
    if root is not None:
        return (a + b * root, Fraction(0))
    sq = b * b * d
    return (a, sq if b >= 0 else -sq)


def plucker(span, d):
    """The six 2x2 row minors of a 4x2 span over Q(sqrt d)."""
    return tuple(
        q_sub(q_mul(span[r][0], span[s][1], d), q_mul(span[s][0], span[r][1], d))
        for r, s in PAIRS
    )


def meet(p, q, d):
    """The incidence pairing of two Pluecker vectors; zero iff the lines meet."""
    terms = ((0, 5, 1), (1, 4, -1), (2, 3, 1), (3, 2, 1), (4, 1, -1), (5, 0, 1))
    a = b = Fraction(0)
    for i, j, sign in terms:
        x = q_mul(p[i], q[j], d)
        a += sign * x[0]
        b += sign * x[1]
    return (a, b)


def proportional(p, q, d) -> bool:
    return all(
        q_is_zero(q_sub(q_mul(p[i], q[j], d), q_mul(p[j], q[i], d)), d)
        for i in range(6) for j in range(i + 1, 6)
    )


def normalized(p, d) -> tuple:
    """Pluecker vector scaled so its first non-zero coordinate is 1, each
    coordinate in the canonical form of :func:`q_real`."""
    root = _rational_sqrt(d)
    if root is not None:
        p = tuple((a + b * root, Fraction(0)) for a, b in p)
    a, b = next(x for x in p if not q_is_zero(x, d))
    norm = a * a - d * b * b
    inv = (a / norm, -b / norm)
    return tuple(q_real(q_mul(x, inv, d), d) for x in p)


def rational_plucker(block) -> tuple:
    """Pluecker coordinates of a rational 4x2 block, embedded with b = 0."""
    return tuple(
        (block[r][0] * block[s][1] - block[s][0] * block[r][1], Fraction(0)) for r, s in PAIRS
    )
