import random
from fractions import Fraction

import pytest

from fourlines import (
    DimensionError,
    IndexSet,
    MatQ,
    QuadNum,
    RadicandMismatch,
    SingularMatrixError,
    Y_SIGN,
    mat_det,
    mat_inverse,
    mat_minor,
    quad_arith,
)
from fourlines.exact import rational_sqrt

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


class TestDeterminant:
    def test_identity(self):
        assert mat_det(MatQ.identity(4)) == 1

    def test_sign_matrix(self):
        # frozen via cofactor expansion of the displayed 4x4
        assert mat_det(Y_SIGN) == 1
        assert det_cofactor(Y_SIGN) == 1

    def test_all_ones_composition(self, x1):
        assert mat_det(x1) == 1

    def test_non_square(self):
        with pytest.raises(DimensionError):
            MatQ([[1, 2, 3], [4, 5, 6]]).det()

    def test_bareiss_agrees_with_cofactor(self):
        rng = random.Random(7)
        for _ in range(100):
            m = rand_mat(rng)
            assert m.det() == det_cofactor(m)

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
        assert mat_minor(x1, (1, 3), (1, 2)) == 2
        assert mat_minor(x1, (2, 4), (3, 4)) == 20

    def test_full_minor_is_det(self):
        rng = random.Random(17)
        m = rand_mat(rng)
        assert mat_minor(m, (1, 2, 3, 4), (1, 2, 3, 4)) == m.det()

    def test_size_mismatch(self, x1):
        with pytest.raises(DimensionError):
            mat_minor(x1, (1, 2), (1, 2, 3))

    def test_matches_copied_submatrix(self):
        rng = random.Random(19)
        m = rand_mat(rng)
        from itertools import combinations

        for size in range(1, 5):
            for I in combinations(range(1, 5), size):
                for J in combinations(range(1, 5), size):
                    copied = MatQ([[m[i - 1, j - 1] for j in J] for i in I])
                    assert mat_minor(m, I, J) == copied.det()

    def test_index_set_validation(self):
        with pytest.raises(DimensionError):
            IndexSet((2, 1))
        with pytest.raises(DimensionError):
            IndexSet((0, 1))


class TestInverse:
    def test_identity(self):
        assert mat_inverse(MatQ.identity(4)) == MatQ.identity(4)

    def test_sign_matrix_inverse_is_transpose(self):
        inv = mat_inverse(Y_SIGN)
        assert inv == Y_SIGN.transpose()
        assert Y_SIGN @ inv == MatQ.identity(4)

    def test_diagonal(self):
        d = MatQ.diag([Fraction(2), Fraction(3), Fraction(5), Fraction(7)])
        assert mat_inverse(d) == MatQ.diag(
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]
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


def q(a, b, d) -> QuadNum:
    return QuadNum(Fraction(a), Fraction(b), Fraction(d))


class TestQuadNum:
    def test_conjugate_product(self):
        assert q(1, 1, 2) * q(1, -1, 2) == -1

    def test_rationalization(self):
        inv = quad_arith("div", q(1, 0, 5), q(3, 1, 5))
        assert inv == q(Fraction(3, 4), Fraction(-1, 4), 5)
        assert inv * q(3, 1, 5) == 1

    def test_embedding_agrees_with_rationals(self):
        rng = random.Random(29)
        for _ in range(50):
            a, b = rand_frac(rng), rand_frac(rng)
            for op, f in (("add", a + b), ("sub", a - b), ("mul", a * b)):
                assert quad_arith(op, q(a, 0, 7), q(b, 0, 7)) == f
            if b != 0:
                assert quad_arith("div", q(a, 0, 7), q(b, 0, 7)) == a / b

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
            quad_arith("div", q(1, 0, 2), q(0, 0, 2))

    def test_same_value_across_radicands(self):
        # sqrt(320) = 8*sqrt(5)
        assert q(0, 1, 320).same_value(q(0, 8, 5))
        assert not q(0, 1, 320).same_value(q(0, -8, 5))
        assert q(Fraction(1, 2), 0, 320).same_value(Fraction(1, 2))
        # perfect-square radicand folds to a rational
        assert q(1, 2, 9).same_value(q(7, 0, 5))

    def test_approx(self):
        assert abs(q(0, 1, 2).approx() - 2 ** 0.5) < 1e-12


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
