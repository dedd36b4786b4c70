import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourlines import (
    DimensionError,
    IndexSet,
    MatQ,
    QuadNum,
    RadicandMismatch,
    SingularMatrixError,
    Y_SIGN,
)
from fourlines.exact import as_rat, rational_sqrt

from conftest import det_cofactor, rand_frac, rand_mat


def laplace_row_expansion(m: MatQ, row: int) -> Fraction:
    # independent oracle: cofactor expansion along an arbitrary row
    if m.rows == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(m.cols):
        x = m[row, j]
        if not x:
            continue
        rows = [i + 1 for i in range(m.rows) if i != row]
        cols = [t + 1 for t in range(m.cols) if t != j]
        sign = -1 if (row + j) % 2 else 1
        total += sign * x * laplace_row_expansion(m.submatrix(rows, cols), 0)
    return total


def q(a, b, d) -> QuadNum:
    return QuadNum(Fraction(a), Fraction(b), Fraction(d))


def r2(a, b) -> QuadNum:
    return q(a, b, 2)


#: Inputs of the cofactor comparison beside 100 random 4x4 matrices.
DET_INPUTS = {
    "size 1": MatQ([[Fraction(-3, 4)]]),
    "size 2": MatQ([[2, -1], [Fraction(1, 3), 5]]),
    "size 3": rand_mat(random.Random(41), 3),
    "size 5": rand_mat(random.Random(43), 5),
    "zero row": MatQ([[1, 2, 3], [0, 0, 0], [4, 5, 6]]),
    "dependent rows": MatQ([[1, 2, 3, 4], [2, 3, 5, 7], [3, 5, 8, 11], [1, 0, 0, 1]]),
    # a zero in the first column's leading entry: one swap
    "one swap": MatQ([[0, 1, 2], [3, 4, 5], [6, 7, 9]]),
    # zeros above the pivots of the first two columns: two swaps
    "two swaps": MatQ([[0, 2, 3], [0, 0, 5], [7, 1, 4]]),
    "quad": MatQ([[r2(1, 1), r2(0, 1), r2(3, 0)], [r2(2, 0), r2(1, -1), r2(0, 0)],
                  [r2(0, 1), r2(5, 0), r2(1, 2)]]),
    "quad swap": MatQ([[r2(0, 0), r2(1, 1)], [r2(3, -1), r2(2, 0)]]),
    # row 2 is (1 + sqrt 2) times row 1
    "quad singular": MatQ([[r2(1, 1), r2(2, 0)], [r2(3, 2), r2(2, 2)]]),
}


class TestDeterminant:
    def test_identity(self):
        assert MatQ.identity(4).det() == 1

    def test_sign_matrix(self):
        # frozen via cofactor expansion of the displayed 4x4
        assert Y_SIGN.det() == 1
        assert det_cofactor(Y_SIGN) == 1

    def test_all_ones_composition(self, x1):
        assert x1.det() == 1

    def test_non_square(self):
        with pytest.raises(DimensionError):
            MatQ([[1, 2, 3], [4, 5, 6]]).det()

    def test_agrees_with_cofactor(self):
        rng = random.Random(7)
        randoms = {f"random {k}": rand_mat(rng) for k in range(100)}
        for name, m in {**randoms, **DET_INPUTS}.items():
            det = m.det()
            assert det == det_cofactor(m), name
            assert type(det) is type(m[0, 0]), name
            if isinstance(det, QuadNum):
                assert det.d == 2, name
            for size in range(1, m.rows + 1):
                for rows in combinations(range(1, m.rows + 1), size):
                    for cols in combinations(range(1, m.rows + 1), size):
                        assert m.minor(rows, cols) == det_cofactor(m.submatrix(rows, cols)), name

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b = rand_mat(rng), rand_mat(rng)
            assert (a @ b).det() == a.det() * b.det()

    def test_laplace_any_row(self):
        rng = random.Random(13)
        for _ in range(20):
            m = rand_mat(rng)
            d = m.det()
            for row in range(4):
                assert laplace_row_expansion(m, row) == d


class TestMinor:
    def test_x1_minors(self, x1):
        assert x1.minor((1, 3), (1, 2)) == 2
        assert x1.minor((2, 4), (3, 4)) == 20

    def test_full_minor_is_det(self):
        rng = random.Random(17)
        m = rand_mat(rng)
        assert m.minor((1, 2, 3, 4), (1, 2, 3, 4)) == m.det()

    def test_size_mismatch(self, x1):
        with pytest.raises(DimensionError):
            x1.minor((1, 2), (1, 2, 3))

    def test_matches_copied_submatrix(self):
        rng = random.Random(19)
        m = rand_mat(rng)
        from itertools import combinations

        for size in range(1, 5):
            for I in combinations(range(1, 5), size):
                for J in combinations(range(1, 5), size):
                    copied = MatQ([[m[i - 1, j - 1] for j in J] for i in I])
                    assert m.minor(I, J) == copied.det()

    def test_index_set_validation(self):
        with pytest.raises(DimensionError):
            IndexSet((2, 1))
        with pytest.raises(DimensionError):
            IndexSet((0, 1))


class TestInverse:
    def test_identity(self):
        assert MatQ.identity(4).inverse() == MatQ.identity(4)

    def test_sign_matrix_inverse_is_transpose(self):
        inv = Y_SIGN.inverse()
        assert inv == Y_SIGN.transpose()
        assert Y_SIGN @ inv == MatQ.identity(4)

    def test_diagonal(self):
        d = MatQ([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]])
        assert d.inverse() == MatQ(
            [[Fraction(1, 2), 0, 0, 0], [0, Fraction(1, 3), 0, 0],
             [0, 0, Fraction(1, 5), 0], [0, 0, 0, Fraction(1, 7)]]
        )

    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(20):
            m = rand_mat(rng)
            if m.det() == 0:
                continue
            assert m @ m.inverse() == MatQ.identity(4)

    def test_singular(self):
        m = MatQ([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError):
            m.inverse()


class TestQuadNum:
    def test_conjugate_product(self):
        assert q(1, 1, 2) * q(1, -1, 2) == -1

    def test_rationalization(self):
        inv = q(1, 0, 5) / q(3, 1, 5)
        assert inv == q(Fraction(3, 4), Fraction(-1, 4), 5)
        assert inv * q(3, 1, 5) == 1

    def test_embedding_agrees_with_rationals(self):
        rng = random.Random(29)
        for _ in range(50):
            a, b = rand_frac(rng), rand_frac(rng)
            u, v = q(a, 0, 7), q(b, 0, 7)
            assert u + v == a + b
            assert u - v == a - b
            assert u * v == a * b
            if b != 0:
                assert u / v == a / b

    def test_field_axioms(self):
        rng = random.Random(31)
        for d in (2, 5, 320):
            for _ in range(100):
                u = q(rand_frac(rng), rand_frac(rng), d)
                v = q(rand_frac(rng), rand_frac(rng), d)
                w = q(rand_frac(rng), rand_frac(rng), d)
                assert (u + v) + w == u + (v + w)
                assert (u * v) * w == u * (v * w)
                assert u * (v + w) == u * v + u * w
                if u:
                    assert u * u.inverse() == 1

    def test_norm_identity(self):
        rng = random.Random(37)
        for _ in range(50):
            u = q(rand_frac(rng), rand_frac(rng), 13)
            assert u * u.conjugate() == u.norm()

    def test_radicand_mismatch(self):
        with pytest.raises(RadicandMismatch):
            q(1, 1, 2) + q(1, 1, 3)

    def test_rational_part_mixes_into_any_context(self):
        assert q(2, 0, 2) + q(1, 1, 3) == q(3, 1, 3)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q(1, 0, 2) / q(0, 0, 2)

    def test_same_value_across_radicands(self):
        # sqrt(320) = 8*sqrt(5)
        assert q(0, 1, 320).same_value(q(0, 8, 5))
        assert not q(0, 1, 320).same_value(q(0, -8, 5))
        assert q(Fraction(1, 2), 0, 320).same_value(Fraction(1, 2))
        # perfect-square radicand folds to a rational
        assert q(1, 2, 9).same_value(q(7, 0, 5))

    def test_approx(self):
        assert abs(q(0, 1, 2).approx() - 2 ** 0.5) < 1e-12

    def test_approx_outside_the_float_range_is_none(self):
        assert q(10**400, 0, 0).approx() is None  # float(a) overflows
        assert q(1, 10**300, 10**300).approx() is None  # b * sqrt(d) is inf
        assert q(10**300, 0, 0).approx() == 1e300


class _Half(Fraction):
    """A Fraction subclass: constructors keep or coerce it by value."""


class TestConstructors:
    def test_quadnum_parts_equal_their_inputs(self):
        rational = QuadNum(Fraction(1, 2), Fraction(0), Fraction(3))
        for parts in ((1, -2, 5), (rational, 2, 5), (_Half(1, 2), _Half(-3, 4), _Half(5))):
            x = QuadNum(*parts)
            assert (x.a, x.b, x.d) == parts
            assert all(isinstance(p, Fraction) for p in (x.a, x.b, x.d))

    def test_quadnum_irrational_part(self):
        with pytest.raises(RadicandMismatch, match="^quadratic number with irrational part is not rational$"):
            QuadNum(q(0, 1, 2), Fraction(0), Fraction(2))

    @pytest.mark.parametrize("d", [-2, Fraction(-2)], ids=["int", "Fraction"])
    def test_quadnum_negative_radicand(self, d):
        with pytest.raises(RadicandMismatch, match="^negative radicand: values would not be real$"):
            QuadNum(Fraction(1), Fraction(1), d)

    def test_matq_entries(self):
        m = MatQ([[True, 2, Fraction(1, 2)]])
        assert m.entries() == ((Fraction(1), Fraction(2), Fraction(1, 2)),)
        assert all(type(x) is Fraction for x in m.row(0))
        x = q(1, 1, 2)
        assert MatQ([[x]])[0, 0] is x


#: Input checks of the exact kernel: name -> (call, error, exact message).
INPUT_CHECKS = {
    "empty matrix": (lambda: MatQ([]), DimensionError, "matrix must be non-empty"),
    "ragged rows": (lambda: MatQ([[1, 2], [3]]), DimensionError, "ragged rows"),
    "product shapes": (lambda: MatQ([[1, 2]]) @ MatQ([[1, 2]]), DimensionError,
                       "cannot multiply 1x2 by 1x2"),
    "hstack rows": (lambda: MatQ([[1]]).hstack(MatQ([[1], [2]])), DimensionError,
                    "row counts differ in hstack"),
    "non-square inverse": (lambda: MatQ([[1, 2]]).inverse(), DimensionError,
                           "inverse of non-square matrix"),
    "submatrix range": (lambda: MatQ([[1]]).submatrix((1,), (2,)), DimensionError,
                        "index out of range for 1x1 matrix"),
    "negative radicand": (lambda: QuadNum(1, 1, -2), RadicandMismatch,
                          "negative radicand: values would not be real"),
    "zero divisor": (lambda: QuadNum(1, 1, 1).inverse(), ArithmeticError,
                     "zero-divisor: radicand is a perfect square and the conjugate vanishes"),
    "irrational as rational": (lambda: as_rat(QuadNum(0, 1, 2)), RadicandMismatch,
                               "quadratic number with irrational part is not rational"),
    "float as rational": (lambda: as_rat(0.5), TypeError, "not a rational scalar: 0.5"),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_checks(name):
    call, error, message = INPUT_CHECKS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_nullspace():
    m = MatQ([[1, 2, 3], [2, 4, 6]])
    basis = m.nullspace()
    assert len(basis) == 2
    for v in basis:
        assert all(
            sum(m[i, j] * v[j] for j in range(3)) == 0 for i in range(2)
        )


def rank_by_minors(m: MatQ) -> int:
    """Order of the largest non-vanishing minor, by cofactor expansion: a rank
    oracle independent of the library's Gauss-Jordan elimination."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rows in combinations(range(1, m.rows + 1), k):
            for cols in combinations(range(1, m.cols + 1), k):
                if det_cofactor(m.submatrix(rows, cols)):
                    return k
    return 0


small_scalars = st.sampled_from([0, 0, 1, -1, 2]) | st.fractions(-5, 5, max_denominator=4)


def entry_lists(rows: int, cols: int):
    row = st.lists(small_scalars, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


@st.composite
def small_matrices(draw, square=False):
    """Matrices of at most 4 rows and 5 columns; half of them are a product
    through k <= min(rows, cols) dimensions, so often rank-deficient."""
    rows = draw(st.integers(1, 4))
    cols = rows if square else draw(st.integers(1, 5))
    if draw(st.booleans()):
        return MatQ(draw(entry_lists(rows, cols)))
    k = draw(st.integers(1, min(rows, cols)))
    return MatQ(draw(entry_lists(rows, k))) @ MatQ(draw(entry_lists(k, cols)))


derandomized = settings(derandomize=True, max_examples=150, deadline=None)


class TestGaussJordan:
    @derandomized
    @given(small_matrices())
    def test_rank_and_nullspace(self, m):
        basis = m.nullspace()
        assert m.rank() == rank_by_minors(m)
        assert m.rank() + len(basis) == m.cols
        for v in basis:
            assert len(v) == m.cols and all(type(x) is Fraction for x in v)
            assert all(sum(m[i, j] * v[j] for j in range(m.cols)) == 0 for i in range(m.rows))
        if basis:
            assert MatQ(basis).rank() == len(basis)

    @derandomized
    @given(small_matrices(square=True))
    def test_inverse(self, m):
        n = m.rows
        if m.det() != 0:
            assert m @ m.inverse() == MatQ.identity(n) == m.inverse() @ m
            return
        # the first column that the columns before it span has no pivot
        first = next(c for c in range(1, n + 1)
                     if rank_by_minors(m.submatrix(range(1, n + 1), range(1, c + 1))) < c)
        with pytest.raises(SingularMatrixError, match=f"pivot column {first} has vanishing"):
            m.inverse()


def pivot_columns(m: MatQ) -> list:
    """0-based columns that the columns before them do not span, by minors."""
    ranks = [0] + [rank_by_minors(m.submatrix(range(1, m.rows + 1), range(1, c + 1)))
                   for c in range(1, m.cols + 1)]
    return [c for c in range(m.cols) if ranks[c + 1] > ranks[c]]


def nullspace_by_cramer(m: MatQ) -> list:
    """The basis ``nullspace`` promises (one vector per non-pivot column f,
    1 at f and 0 at the other non-pivot columns), solved by Cramer's rule
    on rows where the pivot columns have a non-zero minor."""
    piv = pivot_columns(m)
    rows = next((r for r in combinations(range(m.rows), len(piv))
                 if det_cofactor(MatQ([[m[i, c] for c in piv] for i in r]))), ())
    square = [[m[i, c] for c in piv] for i in rows]
    den = det_cofactor(MatQ(square)) if piv else 1
    basis = []
    for f in (c for c in range(m.cols) if c not in piv):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for t, c in enumerate(piv):
            # column t of the pivot block replaced by -m[:, f]
            swapped = [[-m[i, f] if s == t else x for s, x in enumerate(row)] for i, row in zip(rows, square)]
            v[c] = det_cofactor(MatQ(swapped)) / den
        basis.append(tuple(v))
    return basis


def adjugate_inverse(m: MatQ) -> MatQ:
    """Cofactors over the determinant, by Laplace expansion."""
    n, det = m.rows, det_cofactor(m)
    if n == 1:
        return MatQ([[1 / det]])
    return MatQ([[(-1) ** (i + j) * det_cofactor(m.submatrix(
        [r + 1 for r in range(n) if r != j], [c + 1 for c in range(n) if c != i])) / det
        for j in range(n)] for i in range(n)])


def big_fraction(rng: random.Random, digits: int) -> Fraction:
    return Fraction(rng.randrange(-(10**digits), 10**digits), rng.randrange(10 ** (digits - 1), 10**digits))


def fraction_free_inputs() -> dict:
    """Matrices for the fraction-free pass: large and mixed denominators,
    zero pivots that force row swaps (also after the first step), rank
    deficiency, and the [W3 W4] of tangent configurations."""
    from fourlines import CurveSpec, tangent_config

    rng = random.Random(59)
    out = {f"25-digit {k}": MatQ([[big_fraction(rng, 25) for _ in range(4)] for _ in range(4)])
           for k in range(3)}
    out["12-digit 5x5"] = MatQ([[big_fraction(rng, 12) for _ in range(5)] for _ in range(5)])
    out["12-digit 3x5"] = MatQ([[big_fraction(rng, 12) for _ in range(5)] for _ in range(3)])
    thin = MatQ([[big_fraction(rng, 15) for _ in range(2)] for _ in range(4)])
    for cols in (4, 5):
        out[f"rank 2 of 4x{cols}, 15-digit"] = thin @ MatQ([[big_fraction(rng, 15) for _ in range(cols)]
                                                             for _ in range(2)])
    h = Fraction(1, 10**20 + 3)
    # column 2 has no pivot left after step 1: a swap on the second step
    out["second pivot swap"] = MatQ([[h, h, h], [h, h, 2 * h], [h, 2 * h, h]])
    out["zero column first"] = MatQ([[0, 1, Fraction(2, 3)], [0, Fraction(3, 7), 4], [0, 5, 7]])
    out["zero leading entries"] = MatQ([[0, 0, Fraction(1, 3), 2], [0, Fraction(5, 2), 1, 0],
                                       [Fraction(7, 9), 1, 0, 0], [1, 0, 0, Fraction(1, 11)]])
    out["dependent last column"] = MatQ([[1, Fraction(1, 2), Fraction(3, 2)],
                                        [Fraction(2, 5), 3, Fraction(17, 5)], [7, 0, 7]])
    ts = (Fraction(1, 20), Fraction(37, 100), Fraction(9, 10), Fraction(49, 50))
    quartic = CurveSpec(kind="polynomial",
                        components=((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1, Fraction(-1, 10))))
    for name, curve in (("moment", CurveSpec.moment()), ("quartic", quartic)):
        blocks = tangent_config(curve, ts)
        out[f"tangent [W3 W4], {name}"] = blocks.w3.hstack(blocks.w4)
    return out


FRACTION_FREE_INPUTS = fraction_free_inputs()


class TestFractionFreePass:
    @pytest.mark.parametrize("name", sorted(FRACTION_FREE_INPUTS))
    def test_against_the_cofactor_oracle(self, name):
        m = FRACTION_FREE_INPUTS[name]
        assert m.rank() == rank_by_minors(m)
        assert m.nullspace() == nullspace_by_cramer(m)
        if not m.is_square():
            return
        det = m.det()
        assert type(det) is Fraction and det == det_cofactor(m)
        if det:
            inv = m.inverse()
            assert inv == adjugate_inverse(m)
            assert m @ inv == MatQ.identity(m.rows) == inv @ m
        else:
            missing = min(set(range(m.rows)) - set(pivot_columns(m))) + 1
            with pytest.raises(SingularMatrixError, match=f"^matrix is singular: pivot column {missing} "
                                                          f"has vanishing determinant$"):
                m.inverse()

    def test_tangent_inputs_are_invertible(self):
        for name in ("moment", "quartic"):
            assert FRACTION_FREE_INPUTS[f"tangent [W3 W4], {name}"].det() != 0

    @pytest.mark.parametrize("rows, column", [
        ([[1, 2], [2, 4]], 2),
        ([[0, 1], [0, 3]], 1),
        ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], 3),
        ([[Fraction(1, 3), Fraction(2, 3), 0], [1, 2, 5], [2, 4, 1]], 2),
    ])
    def test_singular_message(self, rows, column):
        with pytest.raises(SingularMatrixError,
                           match=f"^matrix is singular: pivot column {column} has vanishing determinant$"):
            MatQ(rows).inverse()

    def test_quadnum_inverse_round_trip(self):
        m = DET_INPUTS["quad"]
        inv = m.inverse()
        assert all(isinstance(x, QuadNum) and x.d == 2 for row in inv.entries() for x in row)
        assert m @ inv == MatQ.identity(3) == inv @ m
        with pytest.raises(SingularMatrixError, match="pivot column 2"):
            DET_INPUTS["quad singular"].inverse()
