import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourlines import Poly16, poly_equal
from fourlines.identity import printed_FGH, rhs_poly, symbolic_D

from conftest import poly_eval_oracle, rand_frac


def v(name):
    return Poly16.variable(name)


def rand_poly(rng, nterms=5, max_exp=3):
    terms = {}
    for _ in range(nterms):
        ev = [0] * 16
        for _ in range(rng.randint(0, 4)):
            ev[rng.randrange(16)] += rng.randint(1, max_exp)
        terms[tuple(ev)] = rng.randint(-9, 9)
    return Poly16(terms)


#: Sparse Poly16: at most 12 terms, each with at most 6 variables of exponent <= 6.
sparse_polys = st.dictionaries(
    st.dictionaries(st.integers(0, 15), st.integers(1, 6), max_size=6).map(
        lambda ev: tuple(ev.get(i, 0) for i in range(16))
    ),
    st.integers(-10**6, 10**6),
    max_size=12,
).map(Poly16)
points = st.lists(
    st.fractions(-1000, 1000, max_denominator=1000) | st.integers(-10**30, 10**30),
    min_size=16,
    max_size=16,
)
derandomized = settings(derandomize=True, max_examples=60, deadline=None)


def spot_points(count=20):
    """Seeded points mixing Fraction, int and str coordinates, with zero and
    negative entries and some of 10^30 size."""
    rng = random.Random(17)
    big = 10**30
    out = []
    for k in range(count):
        pt = []
        for i in range(16):
            kind = (k + i) % 4
            if kind == 0:
                x = rand_frac(rng)
            elif kind == 1:
                x = Fraction(rng.randint(-big, big), rng.randint(1, big))
            elif kind == 2:
                x = rng.randint(-50, 50)
            else:
                x = f"{rng.randint(-99, 99)}/{rng.randint(1, 99)}"
            pt.append(x)
        pt[k % 16] = 0 if k % 2 else "0"
        out.append(pt)
    return out


class TestEval:
    @pytest.mark.parametrize("poly", [symbolic_D, rhs_poly], ids=lambda f: f.__name__)
    def test_identity_polys_match_oracle(self, poly):
        p = poly()
        pts = spot_points()
        assert any(Fraction(x) < 0 for pt in pts for x in pt)
        assert any(isinstance(x, Fraction) and abs(x.numerator) > 10**29 for pt in pts for x in pt)
        for pt in pts:
            got = p.eval(pt)
            assert type(got) is Fraction
            assert got == poly_eval_oracle(p, pt)

    def test_zero_polynomial(self):
        got = Poly16.zero().eval(spot_points(1)[0])
        assert type(got) is Fraction and got == 0

    @pytest.mark.parametrize("n", [0, 15, 17])
    def test_wrong_length(self, n):
        with pytest.raises(ValueError, match="need 16 values"):
            v("a").eval([1] * n)

    @derandomized
    @given(sparse_polys, points)
    def test_matches_oracle(self, p, point):
        assert p.eval(point) == poly_eval_oracle(p, point)


class TestRingOps:
    def test_square_of_sum(self):
        a, b = v("a"), v("b")
        assert (a + b) * (a + b) == a * a + 2 * a * b + b * b

    def test_additive_inverse(self):
        rng = random.Random(3)
        p = rand_poly(rng)
        z = p + (-p)
        assert z.is_zero()
        assert z.terms == {}

    def test_annihilation(self):
        f, _, _ = printed_FGH()
        assert (f * Poly16.zero()).is_zero()

    def test_eval_is_ring_homomorphism(self):
        rng = random.Random(5)
        for _ in range(100):
            p, q = rand_poly(rng), rand_poly(rng)
            point = [rand_frac(rng) for _ in range(16)]
            assert (p * q).eval(point) == p.eval(point) * q.eval(point)
            assert (p + q).eval(point) == p.eval(point) + q.eval(point)

    @derandomized
    @given(sparse_polys, sparse_polys, points)
    def test_eval_is_ring_homomorphism_generated(self, p, q, point):
        assert 0 not in (p * q).terms.values()
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)
        assert (p + q).eval(point) == p.eval(point) + q.eval(point)

    def test_product_stores_no_zero_coefficient(self):
        a, b = v("a"), v("b")
        prod = (a + b) * (a - b)
        assert prod == a * a - b * b
        assert prod.num_terms() == 2 and 0 not in prod.terms.values()

    def test_monomial_degree_additivity(self):
        m1 = Poly16.monomial("aabc")
        m2 = Poly16.monomial("bcp")
        prod = m1 * m2
        (e1,) = m1.terms
        (e2,) = m2.terms
        (ep,) = prod.terms
        assert ep == tuple(x + y for x, y in zip(e1, e2))

    def test_power(self):
        assert v("a") * v("a") * v("a") == Poly16.monomial("aaa")
        assert (v("a") + 1) * (v("a") + 1) == v("a") * v("a") + 2 * v("a") + 1


class TestPrintedPolynomials:
    def test_evaluations_at_ones(self):
        f, g, h = printed_FGH()
        ones = [Fraction(1)] * 16
        assert f.eval(ones) == 20
        assert g.eval(ones) == 16
        assert h.eval(ones) == 0

    def test_term_counts(self):
        f, g, h = printed_FGH()
        assert f.num_terms() == 18
        assert g.num_terms() == 16
        assert h.num_terms() == 2

    def test_f_minus_g(self):
        # term-by-term subtraction: the two monomials with coefficient 2 in F
        # are exactly the monomials absent from G
        f, g, _ = printed_FGH()
        equal, diff = poly_equal(f, g)
        assert not equal
        assert diff == Poly16.monomial("bknp", 2) + Poly16.monomial("cdehijmo", 2)
        assert diff.num_terms() == 2


class TestEquality:
    def test_reflexive(self):
        rng = random.Random(9)
        p = rand_poly(rng)
        equal, diff = poly_equal(p, p)
        assert equal and diff.is_zero()

    def test_commutativity(self):
        equal, _ = poly_equal(v("a") * v("b"), v("b") * v("a"))
        assert equal


class TestSerialization:
    # A polynomial rebuilt from its sorted terms, in any order, prints the
    # same text and is equal to it; the text is equal only for equal
    # polynomials.

    def test_round_trip_is_identity(self):
        rng = random.Random(13)
        for _ in range(30):
            p = rand_poly(rng)
            text = p.to_text()
            rebuilt = Poly16(dict(reversed(p.sorted_terms())))
            assert rebuilt.to_text() == text
            assert rebuilt == p

    @derandomized
    @given(sparse_polys, sparse_polys)
    @example(*printed_FGH()[:2])
    def test_round_trip_generated(self, p, q):
        assert Poly16(dict(p.sorted_terms())) == p
        assert (p.to_text() == q.to_text()) == (p == q)
        assert Poly16(dict(reversed(p.terms.items()))).to_text() == p.to_text()
        assert (p + q).to_text() == (q + p).to_text() != (p + q + 1).to_text()

    def test_printed_f_round_trip(self):
        f, g, _ = printed_FGH()
        assert Poly16(dict(reversed(f.sorted_terms()))) == f
        assert f.to_text() != g.to_text()
        assert f.to_text() != (f + 1).to_text()

    def test_zero(self):
        assert Poly16.zero().to_text() == "0"
        assert (v("a") - v("a")).to_text() == "0"

    def test_deterministic_order(self):
        p = v("p") + v("a") + 2 * v("c")
        assert p.to_text() == "1·a + 2·c + 1·p"

    def test_content_hash_stable(self):
        f, _, _ = printed_FGH()
        assert f.content_hash() == printed_FGH()[0].content_hash()


def test_coerce_refuses_a_float():
    with pytest.raises(TypeError, match="^cannot coerce 0.5 to Poly16$"):
        Poly16.constant(1) + 0.5
