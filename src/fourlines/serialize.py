"""JSON (de)serialization for every report and instance format.

Rationals travel as strings "p/q" (or "p" when the denominator is 1);
quadratic numbers as objects {a, b, d} meaning a + b*sqrt(d); matrices as
row-major nested arrays.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .curves import CurveSpec, ConvexityReport, SampleReport, POLYNOMIAL, RATIONAL_NORMAL
from .errors import InputError
from .exact import MatQ, QuadNum
from .totalpos import ConfigBlocks, LWParams, PARAM_NAMES, TPReport
from .transversal import LineRep, TransversalSolution


def rat_to_str(r: Fraction) -> str:
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


#: The only accepted rational literal: ``-?[0-9]+(/[0-9]+)?``, no sign on
#: the denominator, no spaces, exponents, decimal points or underscores.
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
#: Longest accepted literal, in characters.  The entries of a bound-10^30
#: instance reach about 640; Python parses at most 4,300-digit integers.
MAX_RATIONAL_LENGTH = 4096


def rat_from_str(s) -> Fraction:
    """Parse a rational literal of the strict grammar above (a JSON integer
    is read as its decimal string)."""
    s = str(s) if isinstance(s, int) and not isinstance(s, bool) else s
    if not isinstance(s, str):
        raise InputError(f"rational literal must be a string, got {type(s).__name__}")
    if len(s) > MAX_RATIONAL_LENGTH:
        raise InputError(f"rational literal of {len(s)} characters exceeds {MAX_RATIONAL_LENGTH}")
    if not _RATIONAL.fullmatch(s):
        raise InputError(f"bad rational literal {s!r}: expected p or p/q in decimal digits")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise InputError(f"bad rational literal {s!r}: zero denominator") from exc


def quad_to_obj(q) -> dict:
    if isinstance(q, Fraction):
        q = QuadNum.of(q, 0)
    return {"a": rat_to_str(q.a), "b": rat_to_str(q.b), "d": rat_to_str(q.d)}


def quad_from_obj(obj) -> QuadNum:
    try:
        return QuadNum(rat_from_str(obj["a"]), rat_from_str(obj["b"]), rat_from_str(obj["d"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad quadratic-number object {obj!r}") from exc


def mat_to_obj(m: MatQ) -> list:
    return [[rat_to_str(x) for x in row] for row in m.entries()]


def mat_from_obj(obj) -> MatQ:
    try:
        return MatQ([[rat_from_str(x) for x in row] for row in obj])
    except (TypeError, IndexError) as exc:
        raise InputError(f"bad matrix object") from exc


def quad_mat_to_obj(m: MatQ) -> list:
    return [[quad_to_obj(x) for x in row] for row in m.entries()]


def blocks_to_obj(blocks: ConfigBlocks) -> dict:
    return {"blocks": [mat_to_obj(w) for w in blocks.blocks()]}


def blocks_from_obj(obj) -> ConfigBlocks:
    try:
        raw = obj["blocks"]
    except (KeyError, TypeError) as exc:
        raise InputError('configuration JSON must have a "blocks" key') from exc
    if len(raw) != 4:
        raise InputError(f"need 4 blocks, got {len(raw)}")
    return ConfigBlocks(*(mat_from_obj(w) for w in raw))


def tp_report_to_obj(rep: TPReport) -> dict:
    witness = None
    if not rep.ok:
        witness = {
            "cols": list(rep.witness_cols.indices),
            "minor": rat_to_str(rep.witness_minor),
        }
        if rep.witness_rows is not None:
            witness["rows"] = list(rep.witness_rows.indices)
    return {"ok": rep.ok, "witness": witness}


def params_to_obj(params: LWParams) -> dict:
    return {name: rat_to_str(v) for name, v in params.as_dict().items()}


def params_from_obj(obj) -> LWParams:
    try:
        return LWParams(tuple(rat_from_str(obj[name]) for name in PARAM_NAMES))
    except (KeyError, TypeError) as exc:
        raise InputError("parameter JSON must map each letter a..p to a rational") from exc


def _line_to_obj(line: LineRep) -> dict:
    plucker = [x if isinstance(x, QuadNum) else QuadNum.of(x, 0) for x in line.plucker]
    return {
        "span": quad_mat_to_obj(line.span),
        "plucker": [quad_to_obj(x) for x in plucker],
        "approx": [x.approx() for x in plucker],
    }


def solution_to_obj(sol: TransversalSolution) -> dict:
    f, h = sol.forms
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
            "D": rat_to_str(sol.quadratic.disc),
        },
        "roots": [
            {"x": quad_to_obj(x), "y": quad_to_obj(y)}
            for x, y in sol.roots
            if x is not None
        ],
        "lines": [_line_to_obj(ln) for ln in sol.lines],
        "incidence": [[quad_to_obj(v) for v in row] for row in sol.incidence],
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
        return CurveSpec(
            kind=POLYNOMIAL,
            components=tuple(tuple(rat_from_str(c) for c in comp) for comp in comps),
        )
    raise InputError(f"unknown curve kind {kind!r}")


def curve_spec_to_obj(curve: CurveSpec) -> dict:
    if curve.kind == RATIONAL_NORMAL:
        return {"kind": RATIONAL_NORMAL}
    return {
        "kind": POLYNOMIAL,
        "components": [[rat_to_str(c) for c in comp] for comp in curve.components],
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers JSON integers over Python's digit limit
        raise InputError(f"invalid JSON: {exc}") from exc
