"""Differential tests of the maximal-minor kernel (each minor the Pluecker
pairing of two integer row wedges), its users (the TP checks, the canonical
form, the curve sample and the sampled convexity check) and the Pluecker
incidence certificate, against oracles that use cofactor expansion or
Gauss-Jordan elimination only."""
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fourlines import (
    CertificateFailure,
    ConfigBlocks,
    CurveSpec,
    DegenerateConfiguration,
    InputError,
    LWParams,
    MatQ,
    NotTotallyPositive,
    QuadNum,
    Y_SIGN,
    blocks_of_canonical,
    canonicalize,
    check_tp_config,
    convexity_sample_check,
    curve_eval,
    frenet_basis,
    kappa_of,
    lemma_sample,
    lw_compose,
    oracle_plucker_solve,
    plucker_meet,
    plucker_of_span,
    random_tp_instance,
    solve_transversals,
)
from fourlines import exact, totalpos, transversal
from fourlines.chart import lw_product
from fourlines.curves import POLYNOMIAL
from fourlines.exact import MinorTable, minor_table

from conftest import (
    AT_INFINITY_X,
    SQUARE_X,
    concat,
    det_cofactor,
    premultiply,
    rand_frac,
    rand_params,
    rand_pos_det,
    swap_w3_columns,
    x_minors,
)

ROWS4 = (1, 2, 3, 4)

#: The 70 column sets C of [W1 W2 W3 W4] in lexicographic order, each with
#: the rows R and columns J (0-based) of the minor of X that it maps to.
#: With g*W = [X Y], det(g) * minor_W(C) = det [X Y]_C, and expanding along
#: the columns of Y (signed unit vectors) leaves the minor of X on the rows
#: that those columns miss.  Y is chosen so that this expansion has sign +1
#: for every C, which ``totalpos.x_minor`` (so ``lw_factor``, the
#: Cramer's-rule X of ``canonicalize`` and the solver's forms) relies on:
#: minor_W(C) = minor_X(R, J) / det(g).
CONFIG_MINORS = tuple(
    (cols,
     tuple(r for r in range(4) if 8 - r not in cols),
     tuple(c - 1 for c in cols if c <= 4))
    for cols in combinations(range(1, 9), 4)
)


def minor(m: MatQ, rows, cols):
    return det_cofactor(m.submatrix(rows, cols)) if rows else Fraction(1)


def oracle_config(blocks: ConfigBlocks) -> tuple:
    """Lexicographically first non-positive maximal minor of [W1 W2 W3 W4]."""
    a = concat(blocks)
    for cols in combinations(range(1, 9), 4):
        m = minor(a, ROWS4, cols)
        if m <= 0:
            return (False, cols, m)
    return (True, None, None)


def oracle_square(x: MatQ) -> tuple:
    """First non-positive minor of a 4x4 matrix, in the order of the column
    sets of [X Y] that hold it (``CONFIG_MINORS``): (False, column set,
    minor) or (True, None, None)."""
    for cols, rows, xcols in CONFIG_MINORS:
        m = minor(x, tuple(r + 1 for r in rows), tuple(c + 1 for c in xcols))
        if m <= 0:
            return (False, cols, m)
    return (True, None, None)


def as_tuple(rep) -> tuple:
    if rep.ok:
        return (True, None, None)
    return (False, tuple(rep.witness_cols), rep.witness_minor)


def assert_square_check(x: MatQ) -> tuple:
    """The 4x4 check, ``check_tp_config`` on the blocks of [X Y], against
    the cofactor oracle, and ``x_minor`` on all 69 minors of x.
    A column pair of rank 1 is refused, and its 2x2 minors, all zero, make
    x not totally positive.  Returns the oracle's verdict."""
    read = x_minors(x)
    for order in range(1, 5):
        for rows in combinations(range(4), order):
            for cols in combinations(range(4), order):
                assert read(rows, cols) == minor(x, tuple(r + 1 for r in rows), tuple(c + 1 for c in cols))
    want = oracle_square(x)
    try:
        got = as_tuple(check_tp_config(blocks_of_canonical(x)))
    except InputError as exc:
        block = int(str(exc).removeprefix("block W").removesuffix(" is rank-deficient"))
        pair = (2 * block - 1, 2 * block)
        assert all(minor(x, rows, pair) == 0 for rows in combinations(ROWS4, 2)) and not want[0]
        return want
    assert got == want
    return want


def entries(blocks: ConfigBlocks) -> list:
    return [[list(r) for r in w.entries()] for w in blocks.blocks()]


def from_entries(ws) -> ConfigBlocks:
    return ConfigBlocks(*(MatQ(w) for w in ws))


def zeroing_change(blocks: ConfigBlocks, block: int, row: int, col: int, target,
                   beyond=Fraction(0)) -> ConfigBlocks:
    """Change one entry so that the maximal minor on columns ``target`` is 0,
    or, with ``beyond`` > 0, moves that fraction of the way further.

    The minor is affine in a single entry, so two evaluations give the root.
    """
    ws = entries(blocks)
    v0 = ws[block][row][col]
    m0 = minor(concat(blocks), ROWS4, target)
    ws[block][row][col] = v0 + 1
    slope = minor(concat(from_entries(ws)), ROWS4, target) - m0
    if slope == 0:
        return None
    ws[block][row][col] = v0 - (1 + beyond) * m0 / slope
    return from_entries(ws)


def perturbed_instances():
    """Single-entry changes of TP instances.

    Every third change zeroes the first column set that holds the changed
    column; the minors before it do not involve that entry, so the witness
    is exactly 0.
    """
    rng = random.Random(5150)
    out = []
    colsets = list(combinations(range(1, 9), 4))
    while len(out) < 45:
        _, blocks = random_tp_instance(rng.randrange(10**6))
        b, r, c = rng.randrange(4), rng.randrange(4), rng.randrange(2)
        kind = len(out) % 3
        if kind == 0:
            target = next(cols for cols in colsets if 2 * b + c + 1 in cols)
            changed = zeroing_change(blocks, b, r, c, target)
        elif kind == 1:
            changed = zeroing_change(blocks, b, r, c, rng.choice(colsets))
        else:
            ws = entries(blocks)
            ws[b][r][c] *= Fraction(rng.choice((-1, 0, 1, 3)), rng.randint(1, 5))
            changed = from_entries(ws)
        if changed is not None and all(w.rank() == 2 for w in changed.blocks()):
            out.append(changed)
    return out


class TestConfigMinorMap:
    def test_column_sets_in_lexicographic_order(self):
        assert [cols for cols, _, _ in CONFIG_MINORS] == list(combinations(range(1, 9), 4))

    def test_sign_is_plus_one_for_all_70_column_sets(self):
        # epsilon_C = det [X Y]_C / minor_X(R, J), on an X with all minors
        # positive and distinct, so a wrong sign or a wrong R or J shows
        x = lw_compose(rand_params(random.Random(3)))
        a = x.hstack(Y_SIGN)
        eps = []
        for cols, rows, xcols in CONFIG_MINORS:
            sub = minor(x, tuple(r + 1 for r in rows), tuple(c + 1 for c in xcols))
            eps.append(minor(a, ROWS4, cols) / sub)
        assert eps == [1] * 70

    def test_row_sets(self):
        # the columns 5..8 of Y are e4, -e3, e2, -e1: each removes one row of X
        by_cols = {cols: (rows, xcols) for cols, rows, xcols in CONFIG_MINORS}
        assert by_cols[1, 2, 3, 4] == ((0, 1, 2, 3), (0, 1, 2, 3))
        assert by_cols[1, 2, 3, 5] == ((0, 1, 2), (0, 1, 2))
        assert by_cols[2, 4, 6, 8] == ((1, 3), (1, 3))
        assert by_cols[5, 6, 7, 8] == ((), ())


def xy_columns(x: MatQ) -> list:
    """The eight columns of [X Y]: the rows of its transpose."""
    return [x.col(j) for j in range(4)] + [Y_SIGN.col(j) for j in range(4)]


class TestLadder:
    @pytest.mark.parametrize("bound", [10, 10**30])
    def test_values_are_row_scaled_minors(self, bound):
        # the table of [X Y]'s columns holds every minor of X, column-scaled
        for seed in range(3):
            params, _ = random_tp_instance(seed, bound)
            x = lw_compose(params)
            scales = [math.lcm(*(v.denominator for v in col)) for col in xy_columns(x)]
            table = minor_table(xy_columns(x))
            assert table.scales == scales and scales[4:] == [1] * 4
            assert len(table) == 0
            full = {cols: table[cols] for cols in combinations(range(8), 4)}
            assert len(table) == 70 and table == full
            for cols, rows, xcols in CONFIG_MINORS:
                exact = minor(x, tuple(r + 1 for r in rows), tuple(c + 1 for c in xcols))
                assert table[tuple(c - 1 for c in cols)] == exact * math.prod(scales[c] for c in xcols)


def assert_ladder_is_exact(m: MatQ):
    """Every wedge of a row pair and every maximal minor of the minor table
    (all of them in order, and each read on its own), and ``value`` on each
    row set, against the cofactor oracle.  Two tables of m are checked: the
    one ``minor_table`` scales by the least row scales, and a
    ``MinorTable`` of integer rows over larger explicit scales, as
    ``curves`` builds its tables."""
    lcms = [math.lcm(*(v.denominator for v in row)) for row in m.entries()]
    scaled = minor_table(m.entries())
    assert scaled.scales == lcms
    wide = [s * (i + 2) for i, s in enumerate(lcms)]
    ints = [[(v * s).numerator for v in row] for row, s in zip(m.entries(), wide)]
    for table in (scaled, MinorTable(ints, wide)):
        scales = table.scales
        assert not table.wedges and not table
        all_wedges = {(i, j): table.wedge(i, j) for i, j in combinations(range(m.rows), 2)}
        full = {rows: table[rows] for rows in combinations(range(m.rows), 4)}
        assert list(table.wedges) == list(combinations(range(m.rows), 2))
        assert list(table) == list(combinations(range(m.rows), 4))
        for (i, j), w in all_wedges.items():
            assert [Fraction(v, scales[i] * scales[j]) for v in w] == [
                minor(m, (i + 1, j + 1), cols) for cols in combinations(ROWS4, 2)]
        for rows, value in full.items():
            exact = minor(m, tuple(r + 1 for r in rows), ROWS4)
            assert Fraction(value, math.prod(scales[r] for r in rows)) == exact
        # a read pairs its minor and keeps it, in the order read
        table = MinorTable(table.ints, scales)
        backwards = list(full)[::-1]
        assert [table.value(rows) for rows in backwards] == [
            minor(m, tuple(r + 1 for r in rows), ROWS4) for rows in backwards]
        assert table == full and list(table) == backwards
        over = Fraction(-3, 7)
        assert [table.value(rows, over) for rows in full] == [table.value(rows) / over for rows in full]


def rand_with_zeros(rng: random.Random, rows: int, cols: int) -> MatQ:
    """Random rationals with about a third of the entries zero and one zero row."""
    a = [[rand_frac(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(cols)]
         for _ in range(rows)]
    a[rng.randrange(rows)] = [Fraction(0)] * cols
    return MatQ(a)


class TestGeneralLadder:
    @pytest.mark.parametrize("rows, count", [(4, 12), (8, 4), (12, 2)])
    def test_random_rational(self, rows, count):
        rng = random.Random(rows)
        for _ in range(count):
            assert_ladder_is_exact(MatQ([[rand_frac(rng) for _ in range(4)] for _ in range(rows)]))

    @pytest.mark.parametrize("rows, count", [(4, 12), (8, 4), (12, 2)])
    def test_rows_with_zero_entries(self, rows, count):
        rng = random.Random(100 + rows)
        for _ in range(count):
            assert_ladder_is_exact(rand_with_zeros(rng, rows, 4))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.fractions(-40, 40, max_denominator=30), min_size=4, max_size=4),
                    min_size=1, max_size=7))
    def test_property_matches_cofactor_oracle(self, rows):
        assert_ladder_is_exact(MatQ(rows))


def quartic(c) -> CurveSpec:
    """(1, t, t^2, t^3 + c t^4): convex on [0, 1] for c = -1/10, not for c = -1."""
    return CurveSpec(kind=POLYNOMIAL, components=((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1, Fraction(c))))


TS_IN = (Fraction(1, 10), Fraction(3, 10), Fraction(5, 10), Fraction(7, 10))
TS_WIDE = (Fraction(1, 10), Fraction(3, 10), Fraction(5, 10), Fraction(9, 10))


class TestCurveSample:
    @pytest.mark.parametrize("curve, ts, eps, ok", [
        (CurveSpec.moment(), TS_IN, Fraction(1, 20), True),
        (CurveSpec.moment(), TS_WIDE, Fraction(1, 1000), True),
        (quartic("-1/10"), TS_IN, Fraction(1, 40), True),
        (quartic("-1/4"), TS_IN, Fraction(1, 40), True),
        (quartic(-1), TS_WIDE, Fraction(1, 40), False),
        (quartic(-1), TS_IN, Fraction(1, 20), False),
    ])
    def test_minors_match_matq_minor(self, curve, ts, eps, ok):
        rep = lemma_sample(curve, ts, eps)
        assert [tuple(iset) for iset, _ in rep.minors] == list(combinations(range(1, 9), 4))
        for (iset, value), kappa in zip(rep.minors, rep.kappas):
            assert value == rep.w.minor(iset, ROWS4)
            assert kappa == kappa_of(iset)
        assert rep.ok is ok
        assert ok or any(value <= 0 for _, value in rep.minors)

    def test_convexity_failures_match_matq_det(self):
        curve, grid = quartic(-1), 9
        fb = frenet_basis(curve)
        points = [(fb @ MatQ.from_cols([curve_eval(curve, Fraction(i, grid + 1))])).col(0)
                  for i in range(1, grid + 1)]
        want = []
        for sub in combinations(range(grid), 4):
            det = MatQ([points[i] for i in sub]).det()
            if det <= 0:
                want.append((tuple(i + 1 for i in sub), det))
        rep = convexity_sample_check(curve, grid)
        assert want and [(tuple(iset), v) for iset, v in rep.failures] == want


class TestCheckTpConfig:
    @pytest.mark.parametrize("bound", [10, 10**30])
    def test_tp_instances(self, bound):
        for seed in range(8):
            _, blocks = random_tp_instance(seed, bound)
            assert as_tuple(check_tp_config(blocks)) == oracle_config(blocks) == (True, None, None)

    def test_change_of_basis(self):
        # det h < 0 flips every maximal minor: the witness is the first column set
        rng = random.Random(17)
        for seed in range(6):
            _, blocks = random_tp_instance(seed)
            h = rand_pos_det(rng)
            if seed % 2:
                h = MatQ([h.row(1), h.row(0), h.row(2), h.row(3)])
            moved = premultiply(blocks, h)
            assert as_tuple(check_tp_config(moved)) == oracle_config(moved)

    def test_perturbed_instances(self):
        zeros = 0
        for blocks in perturbed_instances():
            want = oracle_config(blocks)
            assert as_tuple(check_tp_config(blocks)) == want
            zeros += want[2] == 0
        assert zeros >= 5

    def test_permuted_blocks(self):
        rng = random.Random(23)
        for seed in range(6):
            _, blocks = random_tp_instance(seed)
            order = [0, 1, 2, 3]
            while order == sorted(order):
                rng.shuffle(order)
            permuted = ConfigBlocks(*(blocks.blocks()[j] for j in order))
            assert as_tuple(check_tp_config(permuted)) == oracle_config(permuted)

    def test_verdict_is_positive_det_g_and_tp_x(self, blocks_x1):
        # The TP verdict of a configuration says exactly that its canonical
        # form has det g > 0 and a totally positive X.
        rng = random.Random(37)
        cases = perturbed_instances()
        for seed in range(20):
            _, blocks = random_tp_instance(seed)
            order = [0, 1, 2, 3]
            while order == sorted(order):
                rng.shuffle(order)
            cases.append(ConfigBlocks(*(blocks.blocks()[j] for j in order)))
            cases.append(premultiply(blocks, rand_pos_det(rng)))
        tp = 0
        for blocks in cases:
            canon = canonicalize(blocks)
            verdict = canon.g.det() > 0 and oracle_square(canon.x)[0]
            assert check_tp_config(blocks).ok == verdict
            tp += verdict
        assert len(cases) == 85 and tp == 25
        swapped = ConfigBlocks(blocks_x1.w2, blocks_x1.w1, blocks_x1.w3, blocks_x1.w4)
        assert not check_tp_config(swapped).ok
        assert not oracle_square(canonicalize(swapped).x)[0]

    def test_singular_w34(self):
        for seed in range(3):
            _, b = random_tp_instance(seed)
            w4 = b.w3.map(lambda v: 2 * v)
            singular = ConfigBlocks(b.w1, b.w2, b.w3, MatQ([[r[1], r[0]] for r in w4.entries()]))
            rep = check_tp_config(singular)
            assert as_tuple(rep) == oracle_config(singular)
            assert not rep.ok

    def test_canonical_form_is_the_gauss_jordan_reduction(self):
        # g = Y [W3 W4]^(-1) and X = g [W1 W2] by products, against the
        # Cramer's-rule X that check_tp_config reads from its minor table
        rng = random.Random(41)
        cases = perturbed_instances()[:15]
        for seed in range(6):
            _, blocks = random_tp_instance(seed, 10**30 if seed % 2 else 10)
            cases.append(blocks)
            cases.append(premultiply(blocks, rand_pos_det(rng)))
            cases.append(ConfigBlocks(blocks.w2, blocks.w4, blocks.w1, blocks.w3))
            cases.append(swap_w3_columns(blocks))
        for blocks in cases:
            canon = check_tp_config(blocks).canonical
            g = Y_SIGN @ blocks.w3.hstack(blocks.w4).inverse()
            assert (canon.g, canon.x, canon.y) == (g, g @ blocks.w1.hstack(blocks.w2), Y_SIGN)
            assert g @ concat(blocks) == canon.x.hstack(canon.y)
            assert canon.orientation == (1 if g.det() > 0 else -1)
            assert canonicalize(blocks) == canon
        assert {check_tp_config(b).canonical.orientation for b in cases} == {1, -1}
        _, b = random_tp_instance(0)
        singular = ConfigBlocks(b.w1, b.w2, b.w3, b.w3.map(lambda v: 3 * v))
        assert check_tp_config(singular).canonical is None
        with pytest.raises(DegenerateConfiguration, match=r"\[W3 W4\] is singular"):
            canonicalize(singular)


#: The 17 column sets (1-based) that decide a TP verdict: det[W3 W4] and
#: the 16 chamber minors of X, the minors that give the chart parameters.
VERDICT_COLS = frozenset({(5, 6, 7, 8)} | {
    cols for cols, rows, xcols in CONFIG_MINORS if (rows, xcols) in totalpos._CHAMBER})
#: Near-boundary kinds of ``TestSeventeenMinors``.
NEAR_KINDS = ("tp", "one-zero", "one-below", "zero", "below", "permuted", "singular", "flipped")


def near_boundary(values, kind: str, block: int, row: int, col: int, target: int, seed: int):
    """A configuration of ``kind`` from the TP matrix X = ``lw_compose(values)``,
    in coordinates changed by a matrix of positive determinant, or None.

    "one-zero" and "one-below" move entry (block, row) of X up (col 1) or
    down (col 0) until the first minor through it is 0, or halfway on to the
    next one (``past_the_boundary``); "zero" and "below" move entry ``row``
    of column ``col`` of block ``block`` until the maximal minor on column
    set ``target`` (one of the 70) is 0, or 1/1000 of the way past it.
    "permuted" reorders the blocks, "singular" makes W4 span W3's plane,
    and "flipped" changes coordinates by a matrix of negative determinant.
    """
    rng = random.Random(seed)
    x = lw_compose(LWParams(tuple(values)))
    if kind in ("one-zero", "one-below"):
        x = past_the_boundary(x, block, row, 2 * col - 1, kind == "one-below")
        if x is None:
            return None
    blocks = premultiply(blocks_of_canonical(x), rand_pos_det(rng))
    if kind in ("zero", "below"):
        cols = list(combinations(range(1, 9), 4))[target]
        if 2 * block + col + 1 not in cols:
            return None
        beyond = Fraction(1, 1000) if kind == "below" else Fraction(0)
        return zeroing_change(blocks, block, row, col, cols, beyond)
    if kind == "permuted":
        order = [0, 1, 2, 3]
        while order == sorted(order):
            rng.shuffle(order)
        return ConfigBlocks(*(blocks.blocks()[j] for j in order))
    if kind == "singular":
        return ConfigBlocks(blocks.w1, blocks.w2, blocks.w3, blocks.w3 @ rand_pos_det(rng, 2))
    if kind == "flipped":
        return premultiply(blocks, MatQ([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    return blocks


def from_chamber_minors(target: dict) -> MatQ:
    """The chart product L * diag(m,n,o,p) * U whose chamber minors are the
    non-zero ``target[rows, cols]`` (0-based): each chamber minor of the
    product is one monomial in its parameters, which ``_RATIOS`` inverts,
    so the parameters are those ratios of the targets, of any sign."""
    one = Fraction(1)
    return MatQ(lw_product([math.prod((target[key] for key in num), start=one) /
                            math.prod((target[key] for key in den), start=one)
                            for num, den in map(totalpos._RATIOS.get, totalpos.PARAM_NAMES)]))


def chamber_minor(x: MatQ, key):
    rows, cols = key
    return minor(x, tuple(r + 1 for r in rows), tuple(c + 1 for c in cols))


class TestSeventeenMinors:
    """The verdict reads det[W3 W4] and the 16 chamber minors of X (30
    pairings with the canonical form), and the witness of a failure is the
    70-minor scan's."""

    def test_the_17_column_sets(self):
        assert len(VERDICT_COLS) == 17
        # the chamber minors of X: three entries (11, 14 and 41), five 2x2
        # minors, seven 3x3 minors and det X
        orders = sorted(len(CONFIG_MINORS[list(combinations(range(1, 9), 4)).index(c)][1])
                        for c in VERDICT_COLS)
        assert orders == [0] + [1] * 3 + [2] * 5 + [3] * 7 + [4]

    def test_each_verdict_minor_decides(self):
        # X with one chamber minor -1, or 0 when it is in no denominator of
        # the ratios, and the other 15 positive is not TP; with all 16
        # negative, W = h [X Y] for det h < 0 has its 16 chamber-minor
        # column sets positive and det[W3 W4] < 0
        rng = random.Random(67)
        denominators = {key for _, den in totalpos._RATIOS.values() for key in den}
        cases = []
        for key in totalpos._CHAMBER:
            for value in (-1,) if key in denominators else (-1, 0):
                target = {k: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for k in totalpos._CHAMBER}
                target[key] = Fraction(value)
                x = from_chamber_minors(target)
                assert {k for k in target if chamber_minor(x, k) <= 0} == {key}
                cases.append((x, rand_pos_det(rng)))
        negative = from_chamber_minors({k: Fraction(-rng.randint(1, 9), rng.randint(1, 9))
                                        for k in totalpos._CHAMBER})
        flip = MatQ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        cases.append((negative, flip @ rand_pos_det(rng)))
        for x, h in cases:
            blocks = premultiply(blocks_of_canonical(x), h)
            want = oracle_config(blocks)
            assert not want[0] and as_tuple(check_tp_config(blocks)) == want
        w = concat(premultiply(blocks_of_canonical(negative), flip))
        assert {cols for cols in VERDICT_COLS if minor(w, ROWS4, cols) <= 0} == {(5, 6, 7, 8)}

    def test_matrix_from_chamber_minors(self):
        target = {key: Fraction(-1 if k % 3 else 2, k + 1) for k, key in enumerate(totalpos._CHAMBER)}
        x = from_chamber_minors(target)
        assert {key: chamber_minor(x, key) for key in target} == target

    @settings(derandomize=True, max_examples=160, deadline=None, database=None)
    @given(st.lists(st.fractions(Fraction(1, 10), 10, max_denominator=10), min_size=16, max_size=16),
           st.sampled_from(NEAR_KINDS), st.integers(0, 3), st.integers(0, 3), st.integers(0, 1),
           st.integers(0, 69), st.integers(0, 10**6))
    def test_verdict_and_witness_are_the_scan(self, values, kind, block, row, col, target, seed):
        blocks = near_boundary(values, kind, block, row, col, target, seed)
        assume(blocks is not None and all(w.rank() == 2 for w in blocks.blocks()))
        a = concat(blocks)
        minors = {cols: minor(a, ROWS4, cols) for cols in combinations(range(1, 9), 4)}
        nonpositive = [cols for cols, value in minors.items() if value <= 0]
        if kind.startswith("one"):
            assume(len(nonpositive) == 1)  # exactly one minor <= 0: one of the 17
        pairings = []
        with pytest.MonkeyPatch.context() as mp:
            pair = exact.plucker_meet
            mp.setattr(exact, "plucker_meet", lambda p, q: pairings.append(1) or pair(p, q))
            rep = check_tp_config(blocks)
        want = (False, nonpositive[0], minors[nonpositive[0]]) if nonpositive else (True, None, None)
        assert as_tuple(rep) == want
        assert want[0] == (kind == "tp")
        assert not nonpositive or set(nonpositive) & VERDICT_COLS
        if kind == "singular":
            assert rep.canonical is None and (5, 6, 7, 8) in nonpositive
        if want[0]:
            assert len(pairings) == 30
        else:
            assert len(pairings) <= 70
            if kind.endswith("zero"):
                assert 0 in minors.values()
            if kind.startswith("one"):
                assert (want[2] == 0) == (kind == "one-zero")


#: The 69 minors of a 4x4 matrix as 1-based (rows, columns).
SQUARE_MINORS = tuple((rows, cols) for order in range(1, 5)
                      for rows in combinations(ROWS4, order) for cols in combinations(ROWS4, order))


def moved_entry(x: MatQ, i: int, j: int, delta) -> MatQ:
    entries = [list(r) for r in x.entries()]
    entries[i][j] += delta
    return MatQ(entries)


def past_the_boundary(x: MatQ, i: int, j: int, sign: int, past: bool):
    """x with entry (i, j) (0-based) moved in the direction ``sign`` until
    the first minor through it that decreases reaches 0, or, with ``past``,
    halfway on to the second (twice as far when there is none).  Every
    minor is affine in the entry.  None when no minor through the entry
    decreases that way."""
    roots = []
    for rows, cols in SQUARE_MINORS:
        if i + 1 in rows and j + 1 in cols:
            m0 = minor(x, rows, cols)
            slope = minor(moved_entry(x, i, j, sign), rows, cols) - m0
            if slope < 0:
                roots.append(m0 / -slope)
    if not roots:
        return None
    roots.sort()
    t = roots[0]
    if past:
        t = (t + roots[1]) / 2 if len(roots) > 1 else 2 * t
    return moved_entry(x, i, j, sign * t)


class TestCheckTpSquare:
    """The 4x4 check: ``check_tp_config`` on the blocks of [X Y], whose 70
    maximal minors are the 69 minors of X and det Y = 1."""

    @pytest.mark.parametrize("bound", [10, 10**30])
    def test_tp_matrices(self, bound):
        for seed in range(8):
            params, _ = random_tp_instance(seed, bound)
            assert assert_square_check(lw_compose(params)) == (True, None, None)

    def test_perturbed_matrices(self):
        rng = random.Random(29)
        zeros = 0
        for _ in range(40):
            params, _ = random_tp_instance(rng.randrange(10**6))
            rows = [list(r) for r in lw_compose(params).entries()]
            i, j = rng.randrange(4), rng.randrange(4)
            rows[i][j] *= Fraction(rng.choice((-1, 0, 1, 2)), rng.randint(1, 4))
            x = MatQ(rows)
            assert_square_check(x)
            zeros += any(minor(x, r, c) == 0 for r, c in SQUARE_MINORS)
        assert zeros >= 5

    def test_canonical_x_of_perturbed_instances(self):
        for blocks in perturbed_instances()[:10]:
            assert_square_check(canonicalize(blocks).x)

    def test_matrices_with_zero_entries(self):
        rng = random.Random(43)
        witnesses = set()
        for _ in range(40):
            x = rand_with_zeros(rng, 4, 4) if rng.random() < 0.5 else MatQ(
                [[rand_frac(rng, lo=0) if rng.random() < 0.8 else Fraction(0) for _ in range(4)]
                 for _ in range(4)])
            witnesses.add(assert_square_check(x)[1])
        assert len(witnesses) >= 5

    def test_all_69_minors_are_read_from_the_table(self):
        # minor_X(R, J) is the maximal minor of [X Y] on J and 8 - r, r not in R
        rng = random.Random(47)
        for x in (rand_with_zeros(rng, 4, 4), MatQ([[rand_frac(rng) for _ in range(4)] for _ in range(4)])):
            table = minor_table(xy_columns(x))
            scales = table.scales
            for order in range(1, 5):
                for rows in combinations(range(4), order):
                    missed = tuple(sorted(7 - r for r in range(4) if r not in rows))
                    for cols in combinations(range(4), order):
                        exact = minor(x, tuple(r + 1 for r in rows), tuple(c + 1 for c in cols))
                        assert Fraction(table[cols + missed], math.prod(scales[c] for c in cols)) == exact

    def test_first_witness_order(self):
        # zero each minor of order >= 2 of a TP matrix in turn through its
        # last entry (the minor is affine in it); the check must report the
        # oracle's first non-positive minor in the column-set order of
        # [X Y], which is that one or one that the same entry pushed below 0
        x = lw_compose(rand_params(random.Random(53)))
        witnesses = set()
        for rows, cols in SQUARE_MINORS[16:]:
            i, j = rows[-1] - 1, cols[-1] - 1
            m0 = minor(x, rows, cols)
            slope = minor(moved_entry(x, i, j, 1), rows, cols) - m0
            ok, witness, value = assert_square_check(moved_entry(x, i, j, -m0 / slope))
            assert not ok and value <= 0
            witnesses.add(witness)
        assert len(witnesses) >= 10

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.fractions(Fraction(1, 10), 10, max_denominator=10), min_size=16, max_size=16),
           st.integers(0, 3), st.integers(0, 3), st.sampled_from((1, -1)),
           st.sampled_from(("zero", "past", "pair")))
    def test_near_the_boundary(self, values, i, j, sign, kind):
        # one minor of a TP matrix at 0 or just below it, or a column pair
        # of rank 1, which the configuration check refuses
        x = lw_compose(LWParams(tuple(values)))
        if kind == "pair":
            block = i % 2 + 1
            y = MatQ([[*r[:2 * block - 1], r[2 * block - 2] * values[j], *r[2 * block:]] for r in x.entries()])
            with pytest.raises(InputError, match=f"^block W{block} is rank-deficient$"):
                check_tp_config(blocks_of_canonical(y))
            assert not assert_square_check(y)[0]
            return
        y = past_the_boundary(x, i, j, sign, kind == "past")
        assume(y is not None)
        assume(sum(minor(y, rows, cols) <= 0 for rows, cols in SQUARE_MINORS) == 1)  # no tie
        ok, _, value = assert_square_check(y)
        assert not ok and (value == 0) == (kind == "zero")


class TestIncidenceCertificate:
    @pytest.mark.parametrize("bound", [10, 10**30])
    def test_pairing_is_the_determinant(self, bound):
        for seed in range(3):
            _, blocks = random_tp_instance(seed, bound)
            sol = solve_transversals(blocks)
            d = sol.quadratic.disc
            for w, row in zip(blocks.blocks(), sol.incidence):
                for ln, value in zip(sol.lines, row):
                    det = w.map(lambda v: QuadNum.of(v, d)).hstack(ln.span).det()
                    assert value == det == 0 and value.d == det.d == d

    def test_pairing_is_the_determinant_off_the_lines(self):
        # blocks of another instance, moved off [X Y], miss the lines
        _, blocks = random_tp_instance(0)
        _, other = random_tp_instance(1)
        other = premultiply(other, rand_pos_det(random.Random(31)))
        sol = solve_transversals(blocks)
        d = sol.quadratic.disc
        for w in other.blocks():
            for ln in sol.lines:
                det = w.map(lambda v: QuadNum.of(v, d)).hstack(ln.span).det()
                value = plucker_meet(plucker_of_span(w), ln.plucker)
                assert value == det != 0 and value.d == det.d == d


class TestCertificatesRaise:
    """Each certificate is an explicit check, so it also runs under ``python -O``."""

    def test_tampered_line(self, monkeypatch):
        _, blocks = random_tp_instance(0)
        original = transversal._meeting_span

        def tampered(*args):
            a, b, k = original(*args)
            a = [list(r) for r in a]
            a[0][0] += 1
            return a, b, k

        monkeypatch.setattr(transversal, "_meeting_span", tampered)
        with pytest.raises(CertificateFailure, match="misses an input line"):
            solve_transversals(blocks)

    def test_tampered_sqrt_part_of_line(self, monkeypatch):
        _, blocks = random_tp_instance(0)
        assert solve_transversals(blocks).roots[0][0].b != 0  # the conjugate-pair path
        original = transversal._meeting_span

        def tampered(*args):
            a, b, k = original(*args)
            b = [list(r) for r in b]
            b[0][0] += 1
            return a, b, k

        monkeypatch.setattr(transversal, "_meeting_span", tampered)
        with pytest.raises(CertificateFailure, match="misses an input line"):
            solve_transversals(blocks)

    @staticmethod
    def tamper_certificate(monkeypatch, tampered):
        """Hand the line certificate tampered(roots, lines, parts) in place of
        the stored roots and lines and the integer parts (pa, pb) of the
        lines built."""
        original = transversal._certify_lines
        monkeypatch.setattr(transversal, "_certify_lines",
                            lambda roots, lines, parts, ells, d:
                            original(*tampered(roots, lines, parts), ells, d))

    @pytest.mark.parametrize("flipped", [range(6), range(3, 4)], ids=["all", "p23"])
    def test_tampered_conjugate_line(self, monkeypatch, flipped):
        # line 2 stored with the sign of (some of) its sqrt(d) parts not flipped
        _, blocks = random_tp_instance(0)

        def tampered(roots, lines, parts):
            one, two = lines
            p = tuple(v.conjugate() if k in flipped else v for k, v in enumerate(two.plucker))
            return roots, (one, transversal.LineRep(two.span, p)), parts

        self.tamper_certificate(monkeypatch, tampered)
        with pytest.raises(CertificateFailure, match="not the conjugate of line 1"):
            solve_transversals(blocks)

    @pytest.mark.parametrize("change, message", [
        (lambda pa, pb: ((pa[0], pa[1] + 1, *pa[2:]), pb), "off the Pluecker quadric"),
        # the line spanned by e1, e2, written as (1 + 2 sqrt(d)) * p
        (lambda pa, pb: ((1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)), "conjugate solution lines coincide"),
    ], ids=["quadric", "coincident"])
    def test_tampered_conjugate_pair(self, monkeypatch, change, message):
        # the parts (pa, pb) of line 1, from which line 2 is the conjugate, changed
        _, blocks = random_tp_instance(0)
        self.tamper_certificate(monkeypatch, lambda roots, lines, parts: (roots, lines, [change(*parts[0])]))
        with pytest.raises(CertificateFailure, match=message):
            solve_transversals(blocks)

    def test_tampered_conjugate_root(self, monkeypatch):
        # root 2 is never chart-checked; it must be stored as root 1's conjugate
        _, blocks = random_tp_instance(0)
        self.tamper_certificate(monkeypatch, lambda roots, lines, parts: ((roots[0], roots[0]), lines, parts))
        with pytest.raises(CertificateFailure, match="root 2 is not the conjugate of root 1"):
            solve_transversals(blocks)

    @pytest.mark.parametrize("tampered, message", [
        (lambda one, two: (one, one), "the two solution lines coincide"),
        (lambda one, two: (one, (two[0], (1,) * 6)), r"has a sqrt\(d\) part"),
    ], ids=["coincident", "sqrt-part"])
    def test_tampered_rational_lines(self, monkeypatch, tampered, message):
        blocks = blocks_of_canonical(MatQ(SQUARE_X))
        assert solve_transversals(blocks).roots[0][0].b == 0  # the rational-lines path
        self.tamper_certificate(monkeypatch, lambda roots, lines, parts: (roots, lines, tampered(*parts)))
        with pytest.raises(CertificateFailure, match=message):
            solve_transversals(blocks)

    @staticmethod
    def tamper_y(monkeypatch):
        """Recover every y of a chart root as y + 1: (u + w, v, w) for the
        integer triple (u, v, w) meaning (u + v sqrt(d))/w."""
        original = transversal._y_at

        def tampered(*args):
            u, v, w = original(*args)
            return u + w, v, w

        monkeypatch.setattr(transversal, "_y_at", tampered)

    def test_tampered_root(self, monkeypatch):
        _, blocks = random_tp_instance(0)
        self.tamper_y(monkeypatch)
        with pytest.raises(CertificateFailure, match="misses a bilinear form"):
            solve_transversals(blocks)

    def test_tampered_root_of_degenerate_quadratic(self, monkeypatch):
        # the one finite root when A = 0 is chart-checked like every other
        blocks = blocks_of_canonical(MatQ(AT_INFINITY_X))
        self.tamper_y(monkeypatch)
        with pytest.raises(CertificateFailure, match="misses a bilinear form"):
            solve_transversals(blocks)

    def test_tampered_discriminant(self, monkeypatch):
        # The quadratic has one source; a wrong one yields roots that the
        # chart-root or the incidence certificate rejects.  The solver's
        # quadratic is the resultant of the integer forms of X over den^2,
        # each divided by its content c_f or c_h, so C - 1 moves the printed
        # C by c_f * c_h / den^4.
        original = transversal.eliminate_to_quadratic

        def tampered(f, h):
            quad = original(f, h)
            return transversal.Quadratic(quad.a, quad.b, quad.c - 1)

        monkeypatch.setattr(transversal, "eliminate_to_quadratic", tampered)
        for seed in range(20):
            _, blocks = random_tp_instance(seed)
            with pytest.raises(CertificateFailure, match="misses a bilinear form|misses an input line"):
                solve_transversals(blocks)

    def test_tampered_recomposition(self, monkeypatch):
        # parameters that do not recompose X are refused
        x = lw_compose(random_tp_instance(0)[0])
        compose = totalpos.lw_compose
        monkeypatch.setattr(totalpos, "lw_compose", lambda params: compose(params).map(lambda v: v + 1))
        with pytest.raises(NotTotallyPositive, match="^matrix is outside the positive factorization chart$"):
            totalpos.lw_factor(x)

    def test_tampered_oracle_line(self, monkeypatch):
        _, blocks = random_tp_instance(0)
        original = transversal.span_from_plucker

        def tampered(p):
            span = original(p)
            return MatQ([span.row(1), span.row(0), span.row(2), span.row(3)])

        monkeypatch.setattr(transversal, "span_from_plucker", tampered)
        with pytest.raises(CertificateFailure, match="oracle line"):
            oracle_plucker_solve(blocks)


def test_certificates_raise_under_python_O():
    """TestCertificatesRaise in a ``python -O`` interpreter, which strips
    every assert statement: the certificates must not be asserts."""
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::TestCertificatesRaise"],
        capture_output=True, text=True, env=env, cwd=repo, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout and "skipped" not in proc.stdout
