import random
from fractions import Fraction

import pytest

from fourlines import CurveSpec, InputError, MatQ, QuadNum, lemma_sample, random_tp_instance, solve_transversals
from fourlines import serialize as ser

from conftest import rand_frac


class TestScalars:
    def test_rat_round_trip(self):
        rng = random.Random(113)
        for _ in range(50):
            r = rand_frac(rng)
            assert ser.rat_from_str(ser.rat_to_str(r)) == r
        assert ser.rat_to_str(Fraction(3)) == "3"
        assert ser.rat_to_str(Fraction(-2, 7)) == "-2/7"

    def test_bad_rat(self):
        with pytest.raises(InputError):
            ser.rat_from_str("three")
        with pytest.raises(InputError):
            ser.rat_from_str("1/0")

    @pytest.mark.parametrize("text", ["0.3", "1e3", "1e999999999", "1_0", "+1", " 1", "1/-2",
                                      "1/2/3", "--1", "", "\u0661", "nan", "inf"])
    def test_strict_grammar(self, text):
        with pytest.raises(InputError):
            ser.rat_from_str(text)

    def test_grammar_accepts(self):
        assert ser.rat_from_str("-12/8") == Fraction(-3, 2)
        assert ser.rat_from_str("007") == 7
        assert ser.rat_from_str(5) == 5  # a JSON integer
        with pytest.raises(InputError):
            ser.rat_from_str(0.5)  # a JSON float
        with pytest.raises(InputError):
            ser.rat_from_str(True)

    def test_length_cap(self):
        at_cap = "1" * (ser.MAX_RATIONAL_LENGTH - 2) + "/3"
        assert ser.rat_from_str(at_cap) == Fraction(int("1" * (ser.MAX_RATIONAL_LENGTH - 2)), 3)
        with pytest.raises(InputError, match="exceeds"):
            ser.rat_from_str("1" * (ser.MAX_RATIONAL_LENGTH + 1))

    def test_bound_1e30_literals_fit(self):
        _, blocks = random_tp_instance(0, 10**30)
        longest = max(len(ser.rat_to_str(x)) for w in blocks.blocks() for row in w.entries() for x in row)
        assert longest * 4 < ser.MAX_RATIONAL_LENGTH

    def test_json_over_int_digit_limit(self):
        with pytest.raises(InputError):
            ser.loads("1" * 5000)
        with pytest.raises(InputError):
            ser.loads("[" * 100000)

    def test_quad_round_trip(self):
        q = QuadNum(Fraction(-5, 2), Fraction(1, 16), Fraction(320))
        assert ser.quad_from_obj(ser.quad_to_obj(q)) == q
        assert ser.quad_to_obj(q) == {"a": "-5/2", "b": "1/16", "d": "320"}

    def test_quad_accepts_plain_rational(self):
        assert ser.quad_to_obj(Fraction(1, 2)) == {"a": "1/2", "b": "0", "d": "0"}

    def test_bad_quad(self):
        with pytest.raises(InputError):
            ser.quad_from_obj({"a": "1"})


class TestAggregates:
    def test_matrix_round_trip(self, x1):
        assert ser.mat_from_obj(ser.mat_to_obj(x1)) == x1

    def test_bad_matrix(self):
        with pytest.raises(InputError):
            ser.mat_from_obj("nope")

    def test_blocks_round_trip(self):
        _, blocks = random_tp_instance(17)
        obj = ser.blocks_to_obj(blocks)
        assert len(obj["blocks"]) == 4
        assert ser.blocks_from_obj(obj) == blocks

    def test_blocks_validation(self):
        with pytest.raises(InputError):
            ser.blocks_from_obj({})
        with pytest.raises(InputError):
            ser.blocks_from_obj({"blocks": [[["1"]]]})

    def test_params_round_trip(self):
        params, _ = random_tp_instance(23)
        obj = ser.params_to_obj(params)
        assert set(obj) == set("abcdefghijklmnop")
        assert ser.params_from_obj(obj) == params

    def test_curve_spec_round_trip(self):
        moment = CurveSpec.moment()
        assert ser.curve_spec_from_obj(ser.curve_spec_to_obj(moment)) == moment
        poly = CurveSpec(kind="polynomial", components=((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1, -5)))
        assert ser.curve_spec_from_obj(ser.curve_spec_to_obj(poly)) == poly
        with pytest.raises(InputError):
            ser.curve_spec_from_obj({"kind": "circle"})


class TestReports:
    def test_solution_shape(self, blocks_x1):
        obj = ser.solution_to_obj(solve_transversals(blocks_x1))
        assert obj["quadratic"] == {"A": "8", "B": "40", "C": "40", "D": "320"}
        assert obj["forms"][0] == {"c_xy": "2", "c_x": "1", "c_y": "3", "c_1": "2"}
        assert len(obj["roots"]) == 2
        assert obj["roots"][0]["x"] == {"a": "-5/2", "b": "1/16", "d": "320"}
        assert len(obj["lines"]) == 2
        assert len(obj["lines"][0]["plucker"]) == 6
        assert len(obj["lines"][0]["approx"]) == 6
        assert all(v == {"a": "0", "b": "0", "d": "320"} for row in obj["incidence"] for v in row)
        assert obj["warnings"] == []
        ser.loads(ser.dumps(obj))  # valid JSON

    def test_sample_report_shape(self):
        ts = (Fraction(1, 10), Fraction(3, 10), Fraction(5, 10), Fraction(7, 10))
        obj = ser.sample_report_to_obj(lemma_sample(CurveSpec.moment(), ts, Fraction(1, 20)))
        assert obj["ok"] is True
        assert obj["epsilon"] == "1/20"
        assert len(obj["minors"]) == 70
        assert obj["minors"][0]["rows"] == [1, 2, 3, 4]
        assert obj["minors"][0]["kappa"] == 2

    def test_bad_json(self):
        with pytest.raises(InputError):
            ser.loads("{not json")
