"""JSON (de)serialization for every report and instance format.

Rationals travel as strings "p/q" (or "p" when the denominator is 1);
quadratic numbers as objects {a, b, d} meaning a + b*sqrt(d); matrices as
row-major nested arrays.  Output is the byte format of
``json.dumps(obj, indent=2)``, written by ``dumps``.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from typing import TYPE_CHECKING

from .errors import InputError, number_text

# Each converter imports the library classes it builds where it builds
# them, so reading or writing one format loads only the modules it needs.
if TYPE_CHECKING:
    from .curves import ConvexityReport, CurveSpec, SampleReport
    from .exact import MatQ, QuadNum
    from .totalpos import ConfigBlocks, LWParams, TPReport
    from .transversal import TransversalSolution


def rat_to_str(r: Fraction) -> str:
    """An int or Fraction as "p/q", or "p" when the denominator is 1
    (``number_text``); past the print limit, an InputError."""
    text = number_text(r)
    if text[0] == "<":
        raise InputError(f"an output {text[1:-1]} exceeds the {sys.get_int_max_str_digits()}-digit print limit")
    return text


def refuse_unprintable(values) -> None:
    """``rat_to_str``'s refusal of the first of ``values`` past the print
    limit.  A number of at most 3 bits per allowed digit prints (3 log10 2
    < 1), so only a longer one is converted to text."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    bits = 3 * limit
    for r in values:
        if max(abs(r.numerator), r.denominator).bit_length() > bits:
            rat_to_str(r)


#: The only accepted rational literal: ``-?[0-9]+(/[0-9]+)?``, no sign on
#: the denominator, no spaces, exponents, decimal points or underscores.
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
#: Longest accepted literal, in characters.  The entries of a bound-10^30
#: instance reach about 640; Python parses at most 4,300-digit integers.
MAX_RATIONAL_LENGTH = 4096


def rat_from_str(s, max_length: int = MAX_RATIONAL_LENGTH) -> Fraction:
    """Parse a rational literal of the grammar above, at most ``max_length``
    characters long (a JSON integer is read as its decimal string)."""
    if type(s) is not str:
        s = str(s) if isinstance(s, int) and not isinstance(s, bool) else s
        if not isinstance(s, str):
            raise InputError(f"rational literal must be a string, got {type(s).__name__}")
    if len(s) > max_length:
        raise InputError(f"rational literal of {len(s)} characters exceeds {max_length}")
    if not _RATIONAL.fullmatch(s):
        raise InputError(f"bad rational literal {s!r}: expected p or p/q in decimal digits")
    p, _, q = s.partition("/")
    try:
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except ZeroDivisionError as exc:
        raise InputError(f"bad rational literal {s!r}: zero denominator") from exc


def quad_to_obj(q, disc: Fraction = None, disc_str: str = None) -> dict:
    """{a, b, d} of a QuadNum, or of a Fraction as a + 0*sqrt(0).  A radicand
    that is the object ``disc`` is written as ``disc_str``, its string, so a
    solution stringifies its D once for every number it prints over D."""
    if isinstance(q, Fraction):
        return {"a": rat_to_str(q), "b": "0", "d": "0"}
    return {"a": rat_to_str(q.a), "b": rat_to_str(q.b),
            "d": disc_str if q.d is disc else rat_to_str(q.d)}


def quad_from_obj(obj) -> QuadNum:
    from .exact import QuadNum

    try:
        return QuadNum(rat_from_str(obj["a"]), rat_from_str(obj["b"]), rat_from_str(obj["d"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad quadratic-number object {obj!r}") from exc


def mat_to_obj(m: MatQ) -> list:
    return [[rat_to_str(x) for x in row] for row in m.entries()]


def mat_from_obj(obj) -> MatQ:
    from .exact import MatQ

    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise InputError("matrix JSON must be a list of rows, each a list")
    return MatQ([[rat_from_str(x) for x in row] for row in obj])


def blocks_to_obj(blocks: ConfigBlocks) -> dict:
    return {"blocks": [mat_to_obj(w) for w in blocks.blocks()]}


def blocks_from_obj(obj) -> ConfigBlocks:
    from .totalpos import ConfigBlocks

    try:
        raw = obj["blocks"]
    except (KeyError, TypeError) as exc:
        raise InputError('configuration JSON must have a "blocks" key') from exc
    if not isinstance(raw, list):
        raise InputError('"blocks" must be a list of 4 matrices')
    if len(raw) != 4:
        raise InputError(f"need 4 blocks, got {len(raw)}")
    return ConfigBlocks(*(mat_from_obj(w) for w in raw))


def tp_report_to_obj(rep: TPReport) -> dict:
    witness = None
    if not rep.ok:
        # a maximal minor of the 4x8 configuration: every row
        witness = {
            "cols": list(rep.witness_cols.indices),
            "minor": rat_to_str(rep.witness_minor),
            "rows": [1, 2, 3, 4],
        }
    return {"ok": rep.ok, "witness": witness}


def params_to_obj(params: LWParams) -> dict:
    return {name: rat_to_str(v) for name, v in params.as_dict().items()}


def solution_to_obj(sol: TransversalSolution) -> dict:
    f, h = sol.forms
    disc = sol.quadratic.disc

    def quad(q) -> dict:
        return quad_to_obj(q, disc, disc_str)

    return {
        "g": mat_to_obj(sol.canonical.g),
        "X": mat_to_obj(sol.canonical.x),
        "forms": [
            {"c_xy": rat_to_str(c[0]), "c_x": rat_to_str(c[1]),
             "c_y": rat_to_str(c[2]), "c_1": rat_to_str(c[3])}
            for c in (f.coeffs(), h.coeffs())
        ],
        "quadratic": {
            "A": rat_to_str(sol.quadratic.a),
            "B": rat_to_str(sol.quadratic.b),
            "C": rat_to_str(sol.quadratic.c),
            # D's one string, made in print order so that an over-limit error
            # names the first such number printed; every {a, b, d} reuses it
            "D": (disc_str := rat_to_str(disc)),
        },
        "roots": [
            {"x": quad(x), "y": quad(y)}
            for x, y in sol.roots
            if x is not None
        ],
        "lines": [
            {
                "span": [[quad(x) for x in row] for row in ln.span.entries()],
                "plucker": [quad(x) for x in ln.plucker],
                "approx": [x.approx() for x in ln.plucker],
            }
            for ln in sol.lines
        ],
        "incidence": [[quad(v) for v in row] for row in sol.incidence],
        "warnings": list(sol.warnings),
    }


def sample_report_to_obj(rep: SampleReport) -> dict:
    return {
        "ts": [rat_to_str(t) for t in rep.ts],
        "epsilon": rat_to_str(rep.epsilon),
        "W": mat_to_obj(rep.w),
        "minors": [
            {"rows": list(iset.indices), "kappa": kappa, "value": rat_to_str(v)}
            for (iset, v), kappa in zip(rep.minors, rep.kappas)
        ],
        "ok": rep.ok,
    }


def convexity_report_to_obj(rep: ConvexityReport) -> dict:
    return {
        "grid": [rat_to_str(t) for t in rep.grid],
        "frenet_degenerate": rep.frenet_degenerate,
        "failures": [
            {"grid_points": list(iset.indices), "value": rat_to_str(v)}
            for iset, v in rep.failures
        ],
        "ok": rep.ok,
        "verdict": rep.verdict,
    }


def curve_spec_from_obj(obj) -> CurveSpec:
    from .curves import MAX_CURVE_LITERAL, POLYNOMIAL, RATIONAL_NORMAL, CurveSpec

    try:
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise InputError('curve JSON must have a "kind" key') from exc
    if kind == RATIONAL_NORMAL:
        return CurveSpec.moment()
    if kind == POLYNOMIAL:
        comps = obj.get("components")
        if comps is None:
            raise InputError('polynomial curve JSON needs "components"')
        if not isinstance(comps, list) or not all(isinstance(comp, list) for comp in comps):
            raise InputError('"components" must be a list of coefficient lists')
        return CurveSpec(
            kind=POLYNOMIAL,
            components=tuple(tuple(rat_from_str(c, MAX_CURVE_LITERAL) for c in comp)
                             for comp in comps),
        )
    raise InputError(f"unknown curve kind {kind!r}")


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte.  On Python 3.11
    ``indent`` takes json off its C encoder; this writer keeps json's C
    string escaper and appends each value's text to one list, joined once.
    Each distinct string is escaped once per call, into a dict that lives
    for the call: a solution repeats its D in every quadratic number.  A
    value whose type is exactly ``str`` or ``int`` is written inline, and
    any other scalar by json's rules (``_scalar``)."""
    out = []
    _write(obj, out, "\n", {})
    out.append("\n")
    return "".join(out)


_CONTAINERS = (dict, list, tuple)
_INFINITY = float("inf")


def _write(o, out: list, nl: str, esc: dict) -> None:
    """Append the text of o to out; ``nl`` is a newline and o's indent, and
    ``esc`` maps each string escaped so far to its text (a text is never
    empty, so ``esc.get(s) or`` escapes only a new string).  A list whose
    items are all exactly ``str`` or ``int``, such as a matrix row, is one
    joined chunk; any other list is written item by item."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner, sep = nl + "  ", "{"
        for k, v in o.items():
            if type(k) is not str and not isinstance(k, str):
                k = _scalar(k)  # json quotes a non-string key
            key = esc.get(k) or esc.setdefault(k, _escape(k))
            cls = type(v)
            if cls is str:
                out.append(f"{sep}{inner}{key}: {esc.get(v) or esc.setdefault(v, _escape(v))}")
            elif cls is int:
                out.append(f"{sep}{inner}{key}: {v!r}")
            elif isinstance(v, _CONTAINERS):
                out.append(f"{sep}{inner}{key}: ")
                _write(v, out, inner, esc)
            else:
                out.append(f"{sep}{inner}{key}: {_scalar(v)}")
            sep = ","
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        texts = []
        for v in o:
            cls = type(v)
            if cls is str:
                texts.append(esc.get(v) or esc.setdefault(v, _escape(v)))
            elif cls is int:
                texts.append(repr(v))
            else:
                break
        else:
            out.append(f"[{inner}{(',' + inner).join(texts)}{nl}]")
            return
        sep = "["
        for v in o:
            if isinstance(v, _CONTAINERS):
                out.append(sep + inner)
                _write(v, out, inner, esc)
            else:
                out.append(f"{sep}{inner}{_scalar(v)}")
            sep = ","
        out.append(nl + "]")
    else:
        out.append(_scalar(o))


def _scalar(o) -> str:
    """The text json writes for a value that is not a list or dict."""
    if isinstance(o, str):
        return _escape(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INFINITY:
            return "Infinity"
        return "-Infinity" if o == -_INFINITY else float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def loads(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers JSON integers over Python's digit limit
        raise InputError(f"invalid JSON: {exc}") from exc
