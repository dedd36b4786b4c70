import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourlines import (
    CurveSpec,
    discriminant_from_minors,
    lw_compose,
    lw_factor,
    printed_FGH,
    random_tp_instance,
    solve_transversals,
    symbolic_D,
    symbolic_X,
    tangent_config,
    verify_identity,
)
from fourlines import chart
from fourlines.identity import rhs_poly
from fourlines.poly import VARS, Poly16

from conftest import rand_params
from test_golden import TANGENT_TS


class TestSymbolicX:
    def test_entries_match_numeric_composition(self):
        rng = random.Random(103)
        sym = symbolic_X()
        for _ in range(20):
            params = rand_params(rng)
            num = lw_compose(params)
            for r in range(4):
                for s in range(4):
                    assert sym[r][s].eval(params.values) == num[r, s]

    def test_corner_entries(self):
        sym = symbolic_X()
        assert sym[0][0].to_text() == "1·m"
        assert sym[3][3].num_terms() == 4  # iklm·abc + ikn·bc + ioc + p


class TestSymbolicD:
    def test_matches_numeric_discriminant(self):
        rng = random.Random(107)
        d = symbolic_D()
        for _ in range(20):
            params = rand_params(rng)
            assert d.eval(params.values) == discriminant_from_minors(lw_compose(params))

    def test_shape(self):
        d = symbolic_D()
        assert d.num_terms() == 129
        assert d.degree() == 20

    def test_at_all_ones(self):
        assert symbolic_D().eval([Fraction(1)] * 16) == 320


def bracket_discriminant(x):
    """The discriminant as the bracket formula in the eight 2x2 minors of X
    (rows 13, 14, 23, 24; columns 12 and 34): the reference that the
    solver's chain of ``chart`` functions must equal."""

    def d(rows, cols):
        (r1, r2), (c1, c2) = ((int(ch) - 1 for ch in rows), (int(ch) - 1 for ch in cols))
        return x[r1][c1] * x[r2][c2] - x[r1][c2] * x[r2][c1]

    d1312, d1412, d2312, d2412 = (d(rows, "12") for rows in ("13", "14", "23", "24"))
    d1334, d1434, d2334, d2434 = (d(rows, "34") for rows in ("13", "14", "23", "24"))
    bracket = d1312 * d2434 - d2412 * d1334 - d1412 * d2334 + d2312 * d1434
    return bracket * bracket - 4 * (d1312 * d1434 - d1412 * d1334) * (
        d2312 * d2434 - d2412 * d2334
    )


class TestDiscriminantChain:
    """Symbolic proofs that the solver's discriminant chain is the bracket
    formula, for every X, and gives symbolic_D on the chart."""

    def test_generic_x(self):
        # X with 16 free entries: x[r][s] is the variable a..p in row-major order
        x = [[Poly16.variable(VARS[4 * r + s]) for s in range(4)] for r in range(4)]
        lhs = chart.discriminant_of(x)
        assert lhs == bracket_discriminant(x)
        assert lhs.num_terms() == 136

    def test_chart_x(self):
        assert chart.discriminant_of(symbolic_X()) == symbolic_D()
        assert bracket_discriminant(symbolic_X()) == symbolic_D()

    def test_forms_and_resultant_on_generic_x(self):
        x = [[Poly16.variable(VARS[4 * r + s]) for s in range(4)] for r in range(4)]
        f, h = chart.bilinear_forms(x)
        a, b, c = chart.resultant(f, h)
        # Eliminating y from f = y(c_xy x + c_y) + (c_x x + c_1) and h leaves
        # -(A x^2 + B x + C); both sides have degree 2 in x, so agreeing at
        # three values of x proves it.
        for t in (0, 1, 2):
            lhs = (f[1] * t + f[3]) * (h[0] * t + h[2]) - (h[1] * t + h[3]) * (f[0] * t + f[2])
            assert lhs == -(a * t * t + b * t + c)


class TestFactorization:
    def test_rhs_shape(self):
        r = rhs_poly()
        assert r.num_terms() == 129
        assert r.degree() == 20

    def test_positivity_on_positive_orthant(self):
        # FG + H^2 > 0 for positive parameters, hence D > 0
        rng = random.Random(109)
        f, g, h = printed_FGH()
        for _ in range(50):
            params = rand_params(rng)
            fv = f.eval(params.values)
            gv = g.eval(params.values)
            hv = h.eval(params.values)
            assert fv > 0 and gv > 0
            assert fv * gv + hv * hv > 0
            assert discriminant_from_minors(lw_compose(params)) > 0


def assert_d_is_the_printed_decomposition(blocks):
    """The paper's reason for D > 0 on one instance: at the chart parameters
    of its X, the solver's D is m^2 n^2 (FG + H^2), and F > 0 and G > 0."""
    sol = solve_transversals(blocks)
    values = lw_factor(sol.canonical.x).values
    f, g, _ = printed_FGH()
    assert sol.quadratic.disc == rhs_poly().eval(values)
    assert f.eval(values) > 0 and g.eval(values) > 0


class TestDiscriminantAtTheParameters:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from((10, 10**30)))
    def test_random_instances(self, seed, bound):
        assert_d_is_the_printed_decomposition(random_tp_instance(seed, bound)[1])

    def test_moment_tangent_sample(self):
        assert_d_is_the_printed_decomposition(tangent_config(CurveSpec.moment(), TANGENT_TS))


class TestCertificate:
    def test_identity_holds(self):
        cert = verify_identity(spot_count=3)
        assert cert.equal
        assert cert.difference.is_zero()
        assert cert.lhs == cert.rhs

    def test_spot_rows(self):
        cert = verify_identity(spot_count=4, seed=5)
        assert len(cert.spot_evaluations) == 4
        first = cert.spot_evaluations[0]
        assert all(v == 1 for v in first.point)
        assert first.lhs == first.rhs == 320
        for spot in cert.spot_evaluations:
            assert spot.lhs == spot.rhs

    def test_fields_are_read_only(self):
        cert = verify_identity(spot_count=2)
        for obj, name in ((cert, "equal"), (cert.spot_evaluations[0], "lhs")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        spot = cert.spot_evaluations[1]
        assert type(spot)(point=spot.point, lhs=spot.lhs, rhs=spot.rhs) == spot

    def test_deterministic(self):
        c1 = verify_identity(spot_count=3, seed=11)
        c2 = verify_identity(spot_count=3, seed=11)
        assert json.dumps(c1.to_obj(), indent=2) == json.dumps(c2.to_obj(), indent=2)

    def test_json_shape(self):
        obj = json.loads(json.dumps(verify_identity(spot_count=2).to_obj(), indent=2))
        assert obj["equal"] is True
        assert obj["difference"] == "0"
        assert obj["lhs"]["sha256"] == obj["rhs"]["sha256"]
        assert obj["lhs"]["num_terms"] == 129
        assert obj["lhs"]["degree"] == 20
        assert obj["spot_evaluations"][0]["lhs"] == "320"
