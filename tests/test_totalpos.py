import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from fourlines import (
    ConfigBlocks,
    DegenerateConfiguration,
    DimensionError,
    DomainError,
    InputError,
    LWParams,
    MatQ,
    NotTotallyPositive,
    Y_SIGN,
    blocks_of_canonical,
    canonicalize,
    check_tp_config,
    lw_compose,
    lw_factor,
    random_tp_instance,
)

from fourlines.chart import lw_product
from fourlines.identity import symbolic_X
from fourlines.poly import Poly16
from fourlines.totalpos import _CHAMBER, _RATIOS, PARAM_NAMES, y_sign_times

from conftest import concat, premultiply, rand_mat, rand_params, rand_pos_det, x_minors


class TestParams:
    def test_letter_indexing(self, ones_params):
        assert ones_params["a"] == 1 and ones_params["p"] == 1

    @pytest.mark.parametrize("key", ["", "ab", "z", "A"])
    def test_only_one_letter_names_a_parameter(self, key):
        with pytest.raises(KeyError):
            rand_params(random.Random(0))[key]

    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            LWParams((Fraction(1),) * 15)

    def test_non_positive_rejected(self):
        vals = [Fraction(1)] * 16
        vals[4] = Fraction(0)
        with pytest.raises(DomainError):
            LWParams(tuple(vals))
        vals[4] = Fraction(-1, 2)
        with pytest.raises(DomainError):
            LWParams(tuple(vals))


class TestCompose:
    def test_all_ones(self, ones_params, x1):
        assert lw_compose(ones_params) == x1

    def test_determinant_is_product_of_diagonal(self):
        rng = random.Random(41)
        for _ in range(30):
            params = rand_params(rng)
            prod = params["m"] * params["n"] * params["o"] * params["p"]
            assert lw_compose(params).det() == prod

    def test_always_totally_positive(self):
        rng = random.Random(43)
        for _ in range(50):
            rep = check_tp_config(blocks_of_canonical(lw_compose(rand_params(rng))))
            assert rep.ok, (rep.witness_cols, rep.witness_minor)


#: A 4x4 matrix whose first vanishing leading principal minor has the
#: order of each diagonal parameter.
ZERO_PIVOTS = {
    "m": [[0, 1, 1, 1], [1, 1, 1, 1], [1, 1, 2, 2], [1, 1, 2, 3]],
    "n": [[1, 1, 1, 1], [1, 1, 2, 2], [1, 2, 3, 3], [1, 2, 3, 4]],
    "o": [[1, 1, 1, 1], [1, 2, 2, 2], [1, 2, 2, 3], [1, 2, 3, 4]],
    "p": [[1, 1, 1, 1], [1, 2, 2, 2], [1, 2, 3, 3], [1, 2, 3, 3]],
}


def factor_corpus():
    """1,200 derandomized small-integer 4x4 matrices, most not totally
    positive: entries in -1..3; the chart with one parameter in -2..0; and
    the chart with one entry moved by up to 2."""
    rng = random.Random(1807)
    for _ in range(400):
        yield [[rng.randint(-1, 3) for _ in range(4)] for _ in range(4)]
    for _ in range(400):
        params = [rng.randint(1, 3) for _ in range(16)]
        params[rng.randrange(16)] = rng.randint(-2, 0)
        yield lw_product(params)
    for _ in range(400):
        rows = [list(r) for r in lw_product([rng.randint(1, 3) for _ in range(16)])]
        rows[rng.randrange(4)][rng.randrange(4)] += rng.choice((-2, -1, 1, 2))
        yield rows


class TestFactor:
    def test_round_trip_from_params(self):
        rng = random.Random(47)
        for _ in range(100):
            params = rand_params(rng)
            assert lw_factor(lw_compose(params)) == params

    def test_round_trip_from_matrix(self):
        rng = random.Random(53)
        for _ in range(100):
            params, _ = random_tp_instance(rng.randrange(10**6))
            x = lw_compose(params)
            assert lw_compose(lw_factor(x)) == x

    def test_identity_matrix_rejected(self):
        # all parameters of the identity matrix vanish
        with pytest.raises(NotTotallyPositive):
            lw_factor(MatQ.identity(4))

    def test_zero_pivot_named(self):
        m = MatQ(ZERO_PIVOTS["m"])
        with pytest.raises(NotTotallyPositive, match="^zero pivot: diagonal parameter m would vanish$"):
            lw_factor(m)

    @pytest.mark.parametrize("name", sorted(ZERO_PIVOTS))
    def test_zero_pivot_messages(self, name):
        # the first vanishing leading principal minor of order k names pivot k
        with pytest.raises(NotTotallyPositive, match=f"^zero pivot: diagonal parameter {name} would vanish$"):
            lw_factor(MatQ(ZERO_PIVOTS[name]))

    @pytest.mark.parametrize("name", PARAM_NAMES)
    @pytest.mark.parametrize("value", [-1, 0])
    def test_first_non_positive_parameter(self, name, value):
        # the chart at all ones but one parameter: that one is the first
        # refused, except a zero pivot parameter, which vanishes first, and
        # c and i, whose zero is the boundary of the chart
        params = [1] * 16
        params[PARAM_NAMES.index(name)] = value
        if value == -1:
            message = f"recovered parameter {name} = -1 is not positive"
        elif name in "mnop":
            message = f"zero pivot: diagonal parameter {name} would vanish"
        elif name in "ci":
            message = f"recovered parameter {name} vanishes (boundary of total positivity)"
        else:
            message = f"recovered parameter {name} = 0 is not positive"
        with pytest.raises(NotTotallyPositive, match=f"^{re.escape(message)}$"):
            lw_factor(MatQ(lw_product(params)))

    def test_non_tp_corpus(self):
        # parameters or message of each corpus matrix, as recorded when
        # lw_factor still ran its own elimination and back-solved a..l
        # through differences; reading each parameter as one ratio of minors
        # keeps every outcome: 44 factored, 1,156 refused
        outcomes = []
        for rows in factor_corpus():
            try:
                outcomes.append(" ".join(map(str, lw_factor(MatQ(rows)).values)))
            except NotTotallyPositive as exc:
                outcomes.append(f"NotTotallyPositive: {exc}")
        assert sum(":" not in o for o in outcomes) == 44
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == "a3a6260babd3cf15c446917fab0ff701a378ae18aaec26e36c593526ed35de4a"

    def test_negative_entry_rejected(self, x1):
        rows = [list(r) for r in x1.entries()]
        rows[3][0] = -rows[3][0]
        with pytest.raises(NotTotallyPositive):
            lw_factor(MatQ(rows))

    def test_non_square(self):
        with pytest.raises(DimensionError):
            lw_factor(MatQ([[1, 2], [3, 4]]))

    def test_factors_exactly_the_tp_matrices(self):
        # lw_factor succeeds exactly when check_tp_config finds X totally
        # positive; a rank-deficient column pair of X is refused, not TP
        tp = rank_deficient = 0
        for rows in [*factor_corpus(), *ZERO_PIVOTS.values()]:
            x = MatQ(rows)
            try:
                ok = check_tp_config(blocks_of_canonical(x)).ok
            except InputError:
                ok = False
                rank_deficient += 1
            try:
                lw_factor(x)
                factored = True
            except NotTotallyPositive:
                factored = False
            assert factored == ok, rows
            tp += ok
        assert (tp, rank_deficient) == (44, 18)


def symbolic_minor(x, rows, cols) -> Poly16:
    """A minor of a matrix of Poly16 entries, by permutation expansion."""
    total = Poly16.zero()
    for perm in permutations(cols):
        inversions = sum(p > q for k, p in enumerate(perm) for q in perm[k + 1:])
        term = Poly16.constant((-1) ** inversions)
        for r, c in zip(rows, perm):
            term = term * x[r][c]
        total = total + term
    return total


class TestChamberMinors:
    """The ratios of ``lw_factor`` hold over the symbolic chart product."""

    def test_sixteen_minors_name_sixteen_parameters(self):
        assert sorted(_RATIOS) == list(PARAM_NAMES) and len(_CHAMBER) == 16

    def test_each_minor_is_one_monomial(self):
        x = symbolic_X()
        for rows, cols in _CHAMBER:
            assert symbolic_minor(x, rows, cols).num_terms() == 1, (rows, cols)

    def test_each_parameter_is_its_ratio(self):
        # param * (product of denominators) = product of numerators
        x = symbolic_X()
        minor = {key: symbolic_minor(x, *key) for key in _CHAMBER}
        for name, (num, den) in _RATIOS.items():
            lhs, rhs = Poly16.variable(name), Poly16.constant(1)
            for key in den:
                lhs = lhs * minor[key]
            for key in num:
                rhs = rhs * minor[key]
            assert lhs == rhs, name


class TestChecks:
    def test_x1_square_tp(self, x1):
        # each of the 69 minors of X1, read from the table of [X Y]
        minor = x_minors(x1)
        for order in range(1, 5):
            for rows in combinations(range(4), order):
                for cols in combinations(range(4), order):
                    assert minor(rows, cols) == x1.minor([r + 1 for r in rows], [c + 1 for c in cols]) > 0

    def test_square_shape(self):
        with pytest.raises(DimensionError, match="^expected a 4x4 matrix$"):
            lw_factor(MatQ([[1]]))

    def test_square_witness_is_first_failure(self, x1):
        # x11 = 0 makes minor_X(1, 1) = 0 on columns (1, 5, 6, 7) of [X Y]
        # and det X = -19 on columns (1, 2, 3, 4), the first column set
        rows = [list(r) for r in x1.entries()]
        rows[0][0] = Fraction(0)
        rep = check_tp_config(blocks_of_canonical(MatQ(rows)))
        assert not rep.ok
        assert tuple(rep.witness_cols) == (1, 2, 3, 4)
        assert rep.witness_minor == MatQ(rows).det() == -19

    def test_config_of_canonical_x1(self, blocks_x1):
        assert check_tp_config(blocks_x1).ok

    def test_config_witness_recomputes(self, blocks_x1):
        w1 = MatQ([[r[1], r[0]] for r in blocks_x1.w1.entries()])  # swap columns
        bad = ConfigBlocks(w1, blocks_x1.w2, blocks_x1.w3, blocks_x1.w4)
        rep = check_tp_config(bad)
        assert not rep.ok
        a = concat(bad)
        assert a.minor((1, 2, 3, 4), rep.witness_cols) == rep.witness_minor
        assert rep.witness_minor <= 0
        # lexicographically first: every earlier column set has a positive minor
        for cols in combinations(range(1, 9), 4):
            if cols == tuple(rep.witness_cols):
                break
            assert a.minor((1, 2, 3, 4), cols) > 0

    def test_rank_deficient_block(self, blocks_x1):
        flat = MatQ([[1, 2], [2, 4], [3, 6], [4, 8]])
        zero_col = MatQ([[0, 1], [0, 2], [0, 3], [0, 4]])
        for idx in range(4):
            for bad in (flat, zero_col, MatQ([[0, 0]] * 4)):
                blocks = list(blocks_x1.blocks())
                blocks[idx] = bad
                with pytest.raises(InputError, match=f"^block W{idx + 1} is rank-deficient$"):
                    check_tp_config(ConfigBlocks(*blocks))
        # only the 2x2 minor on rows 3, 4 is nonzero: rank 2, so the check goes on
        thin = MatQ([[0, 0], [0, 0], [1, 0], [0, 1]])
        assert not check_tp_config(ConfigBlocks(blocks_x1.w1, thin, blocks_x1.w3, blocks_x1.w4)).ok


class TestCanonicalize:
    def test_canonical_blocks_reduce_to_themselves(self, x1, blocks_x1):
        canon = canonicalize(blocks_x1)
        assert canon.g == MatQ.identity(4)
        assert canon.x == x1
        assert canon.y == Y_SIGN

    def test_g_sends_w34_to_y(self):
        rng = random.Random(59)
        for _ in range(20):
            _, blocks = random_tp_instance(rng.randrange(10**6))
            blocks = premultiply(blocks, rand_pos_det(rng))
            canon = canonicalize(blocks)
            assert canon.g @ blocks.w3.hstack(blocks.w4) == Y_SIGN
            assert canon.g @ blocks.w1.hstack(blocks.w2) == canon.x
            assert canon.g.det() > 0

    def test_invariant_under_change_of_ambient_basis(self, blocks_x1, x1):
        # X depends only on the configuration, not the ambient coordinates
        rng = random.Random(61)
        for _ in range(10):
            h = rand_pos_det(rng)
            if h.det() == 0:
                continue
            canon = canonicalize(premultiply(blocks_x1, h))
            assert canon.x == x1

    def test_singular_w34(self, blocks_x1):
        bad = ConfigBlocks(blocks_x1.w1, blocks_x1.w2, blocks_x1.w3, blocks_x1.w3)
        with pytest.raises(DegenerateConfiguration):
            canonicalize(bad)


class TestRandomInstance:
    def test_deterministic(self):
        p1, b1 = random_tp_instance(271828)
        p2, b2 = random_tp_instance(271828)
        assert p1 == p2 and b1 == b2

    def test_instances_are_tp(self):
        for seed in range(10):
            _, blocks = random_tp_instance(seed)
            assert check_tp_config(blocks).ok

    def test_bad_bound(self):
        with pytest.raises(DomainError):
            random_tp_instance(1, bound=0)


def test_y_sign_moves_equal_the_products():
    rng = random.Random(53)
    for _ in range(20):
        m = rand_mat(rng)
        assert y_sign_times(m) == Y_SIGN @ m


def test_blocks_of_canonical_layout(x1):
    blocks = blocks_of_canonical(x1)
    assert blocks.w1.hstack(blocks.w2) == x1
    assert blocks.w3.hstack(blocks.w4) == Y_SIGN
