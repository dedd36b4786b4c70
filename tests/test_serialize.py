import enum
import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourlines import (ConfigBlocks, CurveSpec, InputError, LWParams, MatQ, QuadNum, check_tp_config,
                       convexity_sample_check, lemma_sample, lw_factor, random_tp_instance,
                       solve_transversals, verify_identity)
from fourlines import serialize as ser
from fourlines.curves import MAX_CURVE_COEFFS, POLYNOMIAL, RATIONAL_NORMAL, _certifying_sample
from fourlines.totalpos import MAX_BOUND, PARAM_NAMES

from conftest import X1_ENTRIES, rand_frac
from test_golden import MUTATIONS, SOLVE_BRANCHES, mutated


class TestScalars:
    def test_rat_round_trip(self):
        rng = random.Random(113)
        for _ in range(50):
            r = rand_frac(rng)
            assert ser.rat_from_str(ser.rat_to_str(r)) == r
        assert ser.rat_to_str(Fraction(3)) == "3"
        assert ser.rat_to_str(Fraction(-2, 7)) == "-2/7"

    def test_rat_over_the_print_limit(self):
        # Python prints integers of at most 4,300 digits; 10^4300 has 4,301
        for r in (Fraction(10**4300), Fraction(-1, 10**4300), Fraction(10**4300 + 1, 3)):
            with pytest.raises(InputError, match="output number of 4301 digits exceeds"):
                ser.rat_to_str(r)

    def test_refuse_unprintable(self, monkeypatch):
        # only a number of more than 3 bits per digit of the limit is
        # converted to text, and one past the limit is refused as rat_to_str
        # refuses it
        converted = []
        rat_to_str = ser.rat_to_str
        monkeypatch.setattr(ser, "rat_to_str", lambda r: converted.append(r) or rat_to_str(r))
        small = [Fraction(2**12900 - 1), Fraction(-1, 2**12900 - 1)]  # 12,900 bits, 3,884 digits
        printable = [Fraction(2**12900), Fraction(1, 10**4300 - 1)]  # 12,901 and 14,284 bits
        ser.refuse_unprintable(small + printable)
        assert converted == printable
        with pytest.raises(InputError, match="^an output number of 4301 digits exceeds the 4300-digit print limit$"):
            ser.refuse_unprintable([Fraction(1), Fraction(10**4300, 3), Fraction(10**4301)])

    def test_digit_count_in_the_message(self):
        rng = random.Random(131)
        numbers = [n for k in range(641, 700) for n in (10**k - 1, 10**k, rng.randrange(10**k))]
        digits = [len(str(n)) for n in numbers]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the smallest limit Python accepts
        try:
            for n, d in zip(numbers, digits):
                if d > 640:
                    with pytest.raises(InputError, match=f"of {d} digits exceeds the 640-digit"):
                        ser.rat_to_str(Fraction(1, n))
        finally:
            sys.set_int_max_str_digits(limit)

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

    def test_max_bound_literals_fit(self):
        for seed in range(10):
            _, blocks = random_tp_instance(seed, MAX_BOUND)
            obj = ser.loads(ser.dumps(ser.blocks_to_obj(blocks)))
            assert ser.blocks_from_obj(obj) == blocks
            longest = max(len(x) for w in obj["blocks"] for row in w for x in row)
            assert longest < ser.MAX_RATIONAL_LENGTH

    def test_json_over_int_digit_limit(self):
        with pytest.raises(InputError):
            ser.loads("1" * 5000)
        with pytest.raises(InputError):
            ser.loads("[" * 100000)

    def test_repeated_key_at_any_depth(self):
        # json.loads would keep the last value of a repeated key
        nested = '[{"k": {"x": [], "\\u00e9": 2, "\\u00e9": 3}}]'
        for text, key in (('{"a": 1, "a": 1}', '"a"'), (nested, '"\\u00e9"')):
            with pytest.raises(InputError, match=f"^repeated JSON key {re.escape(key)}$"):
                ser.loads(text)
        assert ser.loads('[{"a": {"a": 1}}, {"a": 2}]') == [{"a": {"a": 1}}, {"a": 2}]

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
        assert params_from_obj(obj) == params

    def test_curve_spec_round_trip(self):
        moment = CurveSpec.moment()
        assert ser.curve_spec_from_obj({"kind": "rational_normal"}) == moment
        poly = CurveSpec(kind="polynomial", components=((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1, -5)))
        obj = {"kind": "polynomial", "components": [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1", "-5"]]}
        assert curve_obj(poly) == obj and ser.curve_spec_from_obj(obj) == poly
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

    def test_sample_report_over_the_print_limit(self):
        # the certified sample of four 801-character ts holds a number of 4,399 digits
        ts = tuple(Fraction(k * 10**399 + 1, 10**400 - k) for k in (3, 5, 7, 9))
        assert [len(ser.rat_to_str(t)) for t in ts] == [801] * 4
        rep = _certifying_sample(CurveSpec.moment(), ts)
        with pytest.raises(InputError, match="4399 digits exceeds"):
            ser.sample_report_to_obj(rep)

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


derandomized = settings(derandomize=True, max_examples=80, deadline=None)
rationals = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))
positive = st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40))
quads = st.builds(QuadNum, rationals, rationals,
                  st.builds(Fraction, st.integers(0, 10**40), st.integers(1, 10**40)))
blocks = st.lists(st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=4, max_size=4),
                  min_size=4, max_size=4).map(lambda ws: ConfigBlocks(*map(MatQ, ws)))
#: Curve-spec literals have at most curves.MAX_CURVE_LITERAL (8) characters.
curve_rationals = st.builds(Fraction, st.integers(-999, 999), st.integers(1, 999))
curves = st.just(CurveSpec.moment()) | st.lists(
    st.lists(curve_rationals, max_size=MAX_CURVE_COEFFS).map(tuple), min_size=4, max_size=4,
).map(lambda comps: CurveSpec(kind="polynomial", components=tuple(comps)))


def _via_json(obj):
    return ser.loads(ser.dumps(obj))


def params_from_obj(obj) -> LWParams:
    """The parameters an object of ``params_to_obj`` names."""
    return LWParams(tuple(ser.rat_from_str(obj[name]) for name in PARAM_NAMES))


def curve_obj(curve: CurveSpec) -> dict:
    """The curve JSON of ``--curve`` that names ``curve``."""
    if curve.kind == RATIONAL_NORMAL:
        return {"kind": RATIONAL_NORMAL}
    return {"kind": POLYNOMIAL, "components": [[ser.rat_to_str(c) for c in comp] for comp in curve.components]}


class TestRoundTripProperties:
    @derandomized
    @given(blocks)
    def test_blocks(self, b):
        assert ser.blocks_from_obj(_via_json(ser.blocks_to_obj(b))) == b

    @derandomized
    @given(st.lists(positive, min_size=16, max_size=16).map(lambda vs: LWParams(tuple(vs))))
    def test_lw_params(self, params):
        assert params_from_obj(_via_json(ser.params_to_obj(params))) == params

    @derandomized
    @given(quads)
    def test_quad(self, q):
        assert ser.quad_from_obj(_via_json(ser.quad_to_obj(q))) == q

    @derandomized
    @given(rationals)
    def test_rational_as_quad(self, r):
        assert ser.quad_to_obj(r) == ser.quad_to_obj(QuadNum.of(r, 0))

    @derandomized
    @given(curves)
    def test_curve_spec(self, curve):
        assert ser.curve_spec_from_obj(_via_json(curve_obj(curve))) == curve


#: Any JSON value, biased towards the keys and shapes the parsers look for.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(
        ["1", "-2/3", "1/0", "0.5", "x", "", "polynomial", "rational_normal"]),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(
        st.sampled_from(["blocks", "kind", "components", "a"]) | st.text(max_size=3),
        children, max_size=4),
    max_leaves=15,
)
near_blocks = st.fixed_dictionaries({"blocks": json_values | st.lists(
    st.lists(st.lists(json_values, min_size=2, max_size=2) | json_values, min_size=4, max_size=4)
    | json_values, min_size=4, max_size=4)})
near_curves = st.fixed_dictionaries({"kind": st.just("polynomial"), "components": json_values | st.lists(
    st.lists(json_values, max_size=3) | json_values, min_size=4, max_size=4)})


def _parses_or_input_error(parse, obj):
    """``parse(obj)`` returns, or raises InputError; any other exception fails."""
    try:
        parse(obj)
    except InputError:
        pass


class TestParserFuzz:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(json_values | near_blocks)
    def test_blocks_from_obj(self, obj):
        _parses_or_input_error(ser.blocks_from_obj, obj)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(json_values | near_curves)
    def test_curve_spec_from_obj(self, obj):
        _parses_or_input_error(ser.curve_spec_from_obj, obj)

    @pytest.mark.parametrize("obj", [
        {"blocks": 5}, {"blocks": None}, {"blocks": "abcd"}, {"blocks": {"a": 1, "b": 2, "c": 3, "d": 4}},
        {"blocks": [["12", "34", "56", "78"]] * 4}, {"blocks": [[{"a": 1}, {"b": 2}]] * 4},
    ])
    def test_malformed_blocks(self, obj):
        with pytest.raises(InputError):
            ser.blocks_from_obj(obj)

    @pytest.mark.parametrize("components", [5, [5, 6, 7, 8], ["12", "1", "1", "1"], {"a": [1]}])
    def test_malformed_components(self, components):
        with pytest.raises(InputError):
            ser.curve_spec_from_obj({"kind": "polynomial", "components": components})


def _json_dumps(obj) -> str:
    """The reference for ``ser.dumps``."""
    return json.dumps(obj, indent=2) + "\n"


#: Text with everything the string escaper treats specially.
json_text = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f é€\U0001f600') | st.characters(),
                    max_size=6)
json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-10**80, 10**80)
                | st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0,
                                                 1e-300, 1e308]) | json_text)


def _json_trees(depth: int):
    """JSON values whose lists and dicts nest at most ``depth`` deep, empty ones included."""
    if depth == 0:
        return json_scalars
    inner = _json_trees(depth - 1)
    return (json_scalars | st.lists(inner, max_size=3) | st.lists(inner, max_size=2).map(tuple)
            | st.dictionaries(json_text, inner, max_size=3))


def _cli_objects() -> dict:
    """name -> every kind of object the CLI writes."""
    objs = {}
    for name, bound in (("bound-10", 10), ("bound-1e30", 10**30)):
        _, blocks = random_tp_instance(0, bound)
        objs[f"solution-{name}"] = ser.solution_to_obj(solve_transversals(blocks))
    for name, (blocks, _) in SOLVE_BRANCHES.items():
        objs[f"solution-{name}"] = ser.solution_to_obj(solve_transversals(blocks()))
    objs["tp-pass"] = ser.tp_report_to_obj(check_tp_config(random_tp_instance(0)[1]))
    *change, _, _ = MUTATIONS["early"]
    objs["tp-witness-rows"] = ser.tp_report_to_obj(check_tp_config(mutated(*change)))
    quartic = CurveSpec(kind="polynomial", components=((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1, -1)))
    ts = tuple(Fraction(k, 10) for k in (1, 3, 5, 9))
    objs["sample-certified"] = ser.sample_report_to_obj(_certifying_sample(CurveSpec.moment(), ts))
    objs["sample-refused"] = ser.sample_report_to_obj(lemma_sample(quartic, ts, Fraction(1, 40)))
    objs["convexity-failures"] = ser.convexity_report_to_obj(convexity_sample_check(quartic, 12))
    objs["identity"] = verify_identity(spot_count=3, seed=2).to_obj()
    objs["factor"] = ser.params_to_obj(lw_factor(MatQ(X1_ENTRIES)))
    params, blocks = random_tp_instance(3)
    objs["random-instance"] = dict(ser.blocks_to_obj(blocks), params=ser.params_to_obj(params),
                                   seed=3, bound=10)
    return objs


CLI_OBJECTS = _cli_objects()


class _Small(enum.IntEnum):
    ONE = 1


class _Text(str):
    pass


class TestWriter:
    """``ser.dumps`` writes the bytes of ``json.dumps(indent=2)``."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_json_trees(5))
    def test_json_trees(self, obj):
        assert ser.dumps(obj) == _json_dumps(obj)

    @pytest.mark.parametrize("name", sorted(CLI_OBJECTS))
    def test_cli_objects(self, name):
        assert ser.dumps(CLI_OBJECTS[name]) == _json_dumps(CLI_OBJECTS[name])

    def test_cli_objects_cover_each_shape(self):
        assert not CLI_OBJECTS["sample-refused"]["ok"]
        assert CLI_OBJECTS["convexity-failures"]["failures"]
        assert CLI_OBJECTS["tp-witness-rows"]["witness"]["rows"] == [1, 2, 3, 4]
        assert CLI_OBJECTS["tp-pass"] == {"ok": True, "witness": None}

    @pytest.mark.parametrize("obj", [[], {}, "", 0, -0.0, None, {"": [[], {}]}, (1, "é"),
                                     {1: "int key", 2.5: None, True: [], None: {}},
                                     # subclasses of str and int take json's own rules
                                     pytest.param({"v": _Small.ONE}, id="intenum-value"),
                                     pytest.param(["a", _Small.ONE, 2], id="intenum-item"),
                                     pytest.param({_Small.ONE: 2}, id="intenum-key"),
                                     pytest.param({"v": _Text('é"')}, id="str-subclass-value"),
                                     pytest.param([_Text("a"), "b", 3], id="str-subclass-item"),
                                     pytest.param({_Text("k"): "k"}, id="str-subclass-key"),
                                     pytest.param([True, 1, False, 0], id="bools-and-ints")])
    def test_small_values(self, obj):
        assert ser.dumps(obj) == _json_dumps(obj)

    def test_unserializable(self):
        with pytest.raises(TypeError, match="Object of type Fraction is not JSON serializable"):
            ser.dumps({"x": [Fraction(1, 2)]})

    def test_repeated_strings(self):
        # each distinct string is escaped once per call: one string object
        # repeated, equal strings that are distinct objects, and distinct
        # strings of one length must each keep their own text
        d = "\"é" * 900 + "/1"
        copies = ["".join(d) for _ in range(3)]
        assert all(c == d and c is not d for c in copies)
        same_length = ['a"', "b\\", "\n\t", "é€", "\x00z"]
        obj = {"D": d, "xs": [{"a": d, "d": d} for _ in range(4)], "copies": copies,
               "same_length": same_length, d: {v: v for v in same_length}}
        assert ser.dumps(obj) == _json_dumps(obj)
        assert ser.dumps(same_length[::-1]) == _json_dumps(same_length[::-1])


@pytest.mark.parametrize("bound", [10, 10**30], ids=["bound-10", "bound-1e30"])
def test_solution_stringifies_d_once(monkeypatch, bound):
    sol = solve_transversals(random_tp_instance(0, bound)[1])
    disc, calls = sol.quadratic.disc, []
    to_str = ser.rat_to_str

    def counting(r):
        calls.append(r)
        return to_str(r)

    monkeypatch.setattr(ser, "rat_to_str", counting)
    obj = ser.solution_to_obj(sol)
    assert sum(r == disc for r in calls) == 1  # 41 when each {a, b, d} wrote its own
    assert len(calls) == 124  # 164 before
    d_str = obj["quadratic"]["D"]
    values = [v for root in obj["roots"] for v in root.values()] + [
        v for line in obj["lines"] for v in line["plucker"] + sum(line["span"], [])] + sum(
        obj["incidence"], [])
    assert len(values) == 40 and all(v["d"] is d_str for v in values)
