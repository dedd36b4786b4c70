"""The factorization chart, the discriminant chain, the 2x2 minors of a
4x2 span and their incidence pairing, once, over any ring.

Every function here uses only ``+``, ``-`` and ``*`` (and multiplication by
the integer 4), so the same code runs on ``Fraction`` entries, where the
solver evaluates it, and on ``Poly16`` variables, where
``fourlines.identity`` expands it symbolically.  Matrices are row-major
nested sequences indexed ``x[r][s]``.

The chart writes a totally positive 4x4 matrix as X = L * diag(m,n,o,p) * U
with the lower unitriangular factor

    [[1, 0, 0, 0],
     [g+j+l, 1, 0, 0],
     [hj+hl+kl, h+k, 1, 0],
     [ikl, ik, i, 1]]

which equals the bidiagonal product
(I + g E21 + h E32 + i E43)(I + j E21 + k E32)(I + l E21), and the upper
unitriangular factor with rows (1, f+d+a, ab+ae+de, abc), (0, 1, b+e, bc),
(0, 0, 1, c), so every positive parameter choice yields a totally positive
product.
"""
from itertools import combinations

#: The row pairs (0-based) of the six Pluecker coordinates p12, p13, p14,
#: p23, p24, p34 of a 4x2 span.
_PLUCKER_ROWS = tuple(combinations(range(4), 2))


def lw_product(params) -> tuple:
    """X = L * diag(m,n,o,p) * U from the 16 parameters a..p, as 4 rows."""
    a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p = params
    diag = (m, n, o, p)
    # the entries of L left of its unit diagonal, and of U right of it
    lower = ((), (g + j + l,), (h * j + h * l + k * l, h + k), (i * k * l, i * k, i))
    upper = ((f + d + a, a * b + a * e + d * e, a * b * c), (b + e, b * c), (c,), ())
    ld = [[x * y for x, y in zip(lower[r], diag)] + [diag[r]] for r in range(4)]

    def entry(r, s):
        # sum over t <= min(r, s) of (L diag)[r][t] * U[t][s], with U[s][s] = 1
        terms = [ld[r][t] * upper[t][s - t - 1] if t < s else ld[r][t]
                 for t in range(min(r, s) + 1)]
        return sum(terms[1:], terms[0])

    return tuple(tuple(entry(r, s) for s in range(4)) for r in range(4))


def bilinear_forms(x) -> tuple:
    """The incidence equations det[W1|U] = 0 and det[W2|U] = 0 of the chart line
    U(x, y) as coefficient tuples (c_xy, c_x, c_y, c_1): the 2x2 minors of X on
    rows 13, 14, 23, 24 and columns 12 (first form) or 34 (second)."""
    return tuple(
        tuple(x[r1][c1] * x[r2][c2] - x[r1][c2] * x[r2][c1]
              for r1, r2 in ((0, 2), (0, 3), (1, 2), (1, 3)))
        for c1, c2 in ((0, 1), (2, 3))
    )


def resultant(f, h) -> tuple:
    """(A, B, C) of the resultant A x^2 + B x + C of two bilinear forms in y."""
    a1, b1, c1, d1 = f
    a2, b2, c2, d2 = h
    return a1 * b2 - a2 * b1, a1 * d2 + c1 * b2 - a2 * d1 - c2 * b1, c1 * d2 - c2 * d1


def discriminant(a, b, c):
    """B^2 - 4AC."""
    return b * b - 4 * a * c


def discriminant_of(x):
    """The discriminant of the quadratic that the chart line of X solves."""
    return discriminant(*resultant(*bilinear_forms(x)))


def wedge(s, t) -> tuple:
    """The six 2x2 minors, in the order p12..p34, of column 0 of the 4x2 matrix
    s beside column 1 of t.  wedge(s, s) is the Pluecker vector of the span of
    s, and wedge(s, t) + wedge(t, s) is bilinear in s and t."""
    return tuple(s[r][0] * t[q][1] - s[q][0] * t[r][1] for r, q in _PLUCKER_ROWS)


def plucker_meet(p: tuple, q: tuple):
    """Incidence pairing <p, q> of two vectors of 2x2 minors in the order
    p12..p34.  By Laplace expansion along two rows (or columns), it is the
    4x4 determinant of the rows (columns) behind p beside those behind q."""
    return (
        p[0] * q[5] - p[1] * q[4] + p[2] * q[3] + p[3] * q[2] - p[4] * q[1] + p[5] * q[0]
    )
