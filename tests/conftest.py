import random
from fractions import Fraction

import pytest

from fourlines import LWParams, MatQ, blocks_of_canonical, lw_compose

X1_ENTRIES = [[1, 3, 3, 1], [3, 10, 11, 4], [3, 11, 14, 6], [1, 4, 6, 4]]

#: One PASS/FAIL line per acceptance criterion, echoed in the summary.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def x1() -> MatQ:
    return MatQ(X1_ENTRIES)


@pytest.fixture
def blocks_x1(x1):
    return blocks_of_canonical(x1)


@pytest.fixture
def ones_params() -> LWParams:
    return LWParams(tuple(Fraction(1) for _ in range(16)))


def det_cofactor(m: MatQ):
    """Laplace cofactor expansion along the first row: a determinant oracle
    independent of the library's Bareiss elimination."""
    rows = m.entries()
    if len(rows) != len(rows[0]):
        raise ValueError("determinant of non-square matrix")
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            sub = MatQ([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total + (-1) ** j * x * det_cofactor(sub)
    return total


def poly_eval_oracle(p, values) -> Fraction:
    """Term-by-term Fraction evaluation of a Poly16: an oracle independent
    of the library's single-division integer kernel."""
    if len(values) != 16:
        raise ValueError(f"need 16 values, got {len(values)}")
    vals = [Fraction(v) for v in values]
    total = Fraction(0)
    for ev, c in p.terms.items():
        term = Fraction(c)
        for v, e in zip(vals, ev):
            if e:
                term *= v**e
        total += term
    return total


def rand_frac(rng: random.Random, lo: int = -9, hi: int = 9, den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_pos_frac(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


def rand_mat(rng: random.Random, n: int = 4, m: int = None) -> MatQ:
    m = n if m is None else m
    return MatQ([[rand_frac(rng) for _ in range(m)] for _ in range(n)])


def rand_params(rng: random.Random, bound: int = 9) -> LWParams:
    return LWParams(tuple(rand_pos_frac(rng, bound) for _ in range(16)))


def rand_pos_det(rng: random.Random, n: int = 4) -> MatQ:
    while True:
        h = MatQ([[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
        d = h.det()
        if d > 0:
            return h
        if d < 0:
            rows = list(h.entries())
            rows[0], rows[1] = rows[1], rows[0]
            return MatQ(rows)


def premultiply(blocks, h: MatQ):
    from fourlines import ConfigBlocks

    return ConfigBlocks(*(h @ w for w in blocks.blocks()))
