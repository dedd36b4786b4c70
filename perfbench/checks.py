"""Correctness checks of one item's output, run after the timed loop.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  They recompute what they need with the benchmark's own
arithmetic in ``exactcheck``; only ``oracle_plucker_solve`` comes from the
library, as the independent second solver the solution must agree with.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from fourlines import ConfigBlocks, MatQ, oracle_plucker_solve
from fourlines.exact import QuadNum

import exactcheck as ec

EXIT_OK, EXIT_HYPOTHESIS = 0, 3
ALL_ONES_D = "320"  # D at a = ... = p = 1


def read_blocks(path) -> list:
    with open(path) as fh:
        return [[[ec.rat(x) for x in row] for row in block] for block in json.load(fh)["blocks"]]


def _quad_field(objs) -> Fraction:
    ds = {ec.rat(o["d"]) for o in objs}
    if len(ds) != 1:
        raise ValueError(f"mixed radicands {sorted(ds)}")
    d = ds.pop()
    if d < 0:
        raise ValueError(f"negative radicand {d}: not a real line")
    return d


def _lines_ok(lines, d, input_pluckers):
    """Two distinct lines (as own Pluecker vectors over Q(sqrt d)), each
    decomposable and meeting every input line."""
    if len(lines) != 2:
        return f"{len(lines)} lines, expected 2"
    for n, p in enumerate(lines):
        if all(ec.q_is_zero(x, d) for x in p):
            return f"line {n} has rank < 2"
        for k, q in enumerate(input_pluckers):
            if not ec.q_is_zero(ec.meet(p, q, d), d):
                return f"line {n} misses input line {k}"
    if ec.proportional(lines[0], lines[1], d):
        return "the two lines coincide"
    return None


def _oracle_agrees(lines, d, config) -> str | None:
    oracle = oracle_plucker_solve(config)
    want = set()
    for line in oracle:
        coords = [x if isinstance(x, QuadNum) else QuadNum.of(x, 0) for x in line.plucker]
        od = max(x.d for x in coords)
        want.add(ec.normalized(tuple((x.a, x.b) for x in coords), od))
    got = {ec.normalized(p, d) for p in lines}
    return None if got == want else "lines differ from oracle_plucker_solve"


def check_solve(blocks, code: int, text: str) -> str | None:
    """``fourlines solve`` output for a TP instance."""
    if code != EXIT_OK:
        return f"exit code {code}"
    obj = json.loads(text)
    objs = [q for ln in obj["lines"] for row in ln["span"] for q in row]
    d = _quad_field(objs)
    lines = []
    for ln in obj["lines"]:
        span = [[(ec.rat(q["a"]), ec.rat(q["b"])) for q in row] for row in ln["span"]]
        p = ec.plucker(span, d)
        stated = tuple((ec.rat(q["a"]), ec.rat(q["b"])) for q in ln["plucker"])
        if stated != p:
            return "stated Pluecker coordinates differ from the span's"
        lines.append(p)
    if any(ec.rat(q["a"]) or ec.rat(q["b"]) for row in obj["incidence"] for q in row):
        return "non-zero incidence certificate"
    reason = _lines_ok(lines, d, [ec.rational_plucker(b) for b in blocks])
    return reason or _oracle_agrees(lines, d, ConfigBlocks(*(MatQ(b) for b in blocks)))


def check_tp(blocks, code: int, text: str) -> str | None:
    """``fourlines check-tp`` verdict and witness against our own scan."""
    found = ec.tp_scan(blocks)
    obj = json.loads(text)
    if found is None:
        if code != EXIT_OK or obj != {"ok": True, "witness": None}:
            return f"TP instance reported as {obj} (exit {code})"
        return None
    _, cols, minor = found
    want = {"ok": False, "witness": {"cols": list(cols), "minor": ec.rat_str(minor),
                                     "rows": [1, 2, 3, 4]}}
    if code != EXIT_HYPOTHESIS or obj != want:
        return f"expected {want}, got {obj} (exit {code})"
    return None


# -- curves -------------------------------------------------------------------

def curve_components(curve_file) -> list:
    """Ascending coefficients of the four components (moment curve if None)."""
    if curve_file is None:
        return [[Fraction(int(k == j)) for k in range(j + 1)] for j in range(4)]
    with open(curve_file) as fh:
        return [[ec.rat(c) for c in comp] for comp in json.load(fh)["components"]]


def _derivative_at(comps, t: Fraction, order: int) -> tuple:
    out = []
    for coeffs in comps:
        total = Fraction(0)
        for k in range(order, len(coeffs)):
            falling = 1
            for f in range(k - order + 1, k + 1):
                falling *= f
            total += coeffs[k] * falling * t ** (k - order)
        out.append(total)
    return tuple(out)


def _wronskian_rows(comps) -> list:
    """Rows of the Wronski matrix at 0; W_frenet * wr^T gives curve coordinates."""
    cols = [_derivative_at(comps, Fraction(0), k) for k in range(4)]
    return [tuple(cols[k][i] for k in range(4)) for i in range(4)]


def _to_curve_coords(vec, wr_rows) -> tuple:
    return tuple(sum(wr_rows[i][k] * vec[k] for k in range(4)) for i in range(4))


def refusal_is_right(comps, ts) -> bool:
    """The four sample values have a non-positive determinant, which no
    epsilon changes, once the Frenet change of basis (of determinant
    1 / det wr) is applied: no sampling certificate exists."""
    wr_cols = [_derivative_at(comps, Fraction(0), k) for k in range(4)]
    values = [_derivative_at(comps, t, 0) for t in ts]
    return ec.det4_laplace(values) * ec.det4_laplace(wr_cols) <= 0


def check_curve_sample(comps, ts, code: int, text: str) -> str | None:
    """``fourlines curve-sample --epsilon auto`` certificate on a convex curve."""
    if code != EXIT_OK:
        return f"exit code {code}"
    obj = json.loads(text)
    eps = ec.rat(obj["epsilon"])
    if obj["ok"] is not True or [ec.rat(t) for t in obj["ts"]] != list(ts):
        return "certificate not ok or for other parameters"
    if eps <= 0 or any(ts[i] + eps >= ts[i + 1] for i in range(3)) or ts[3] + eps > 1:
        return f"inadmissible epsilon {eps}"
    w = [[ec.rat(x) for x in row] for row in obj["W"]]
    wr = _wronskian_rows(comps)
    for i, t in enumerate(ts):
        value, slope = _derivative_at(comps, t, 0), _derivative_at(comps, t, 1)
        moved = tuple(v + eps * s for v, s in zip(value, slope))
        if _to_curve_coords(w[2 * i], wr) != value or _to_curve_coords(w[2 * i + 1], wr) != moved:
            return f"sample rows at t = {t} are wrong"
    stated = obj["minors"]
    for n, rows in enumerate(combinations(range(8), 4)):
        minor = ec.det4_laplace([w[r] for r in rows])
        kappa = sum(1 for k in range(4) if 2 * k in rows and 2 * k + 1 in rows)
        if minor <= 0:
            return f"minor of rows {rows} is {minor}"
        want = {"rows": [r + 1 for r in rows], "kappa": kappa, "value": ec.rat_str(minor)}
        if stated[n] != want:
            return f"stated minor {stated[n]} differs from {want}"
    return None


def check_tangent_solution(comps, ts, solution) -> str | None:
    """The two transversals of the tangent lines at ``ts``.

    ``solution`` holds the library's tangent blocks and solution spans as
    rational strings (a quadratic number is ``[a, b, d]``).  The solver works
    in the curve's Frenet basis at 0, so each line is mapped back to curve
    coordinates and met with our own tangent lines there.
    """
    ds = {ec.rat(q[2]) for ln in solution["lines"] for row in ln for q in row}
    d = max(ds)
    if d < 0 or ds - {d, 0}:
        return f"radicands {sorted(ds)} do not give real lines"
    wr = _wronskian_rows(comps)
    lines, frenet_lines = [], []
    for ln in solution["lines"]:
        span = [[(ec.rat(q[0]), ec.rat(q[1])) for q in row] for row in ln]
        frenet_lines.append(ec.plucker(span, d))
        curve_span = [[(sum(wr[i][k] * span[k][j][0] for k in range(4)),
                        sum(wr[i][k] * span[k][j][1] for k in range(4))) for j in range(2)]
                      for i in range(4)]
        lines.append(ec.plucker(curve_span, d))
    tangents = []
    for t in ts:
        value, slope = _derivative_at(comps, t, 0), _derivative_at(comps, t, 1)
        tangents.append(ec.rational_plucker([[value[i], slope[i]] for i in range(4)]))
    config = ConfigBlocks(*(MatQ([[ec.rat(x) for x in row] for row in b])
                            for b in solution["blocks"]))
    return _lines_ok(lines, d, tangents) or _oracle_agrees(frenet_lines, d, config)


def check_identity(spots: int, code: int, text: str) -> str | None:
    """``fourlines verify-identity`` certificate."""
    if code != EXIT_OK:
        return f"exit code {code}"
    obj = json.loads(text)
    rows = obj["spot_evaluations"]
    if obj["equal"] is not True or obj["difference"] != "0":
        return "identity not certified"
    if len(rows) != max(spots, 1) or any(r["lhs"] != r["rhs"] for r in rows):
        return "spot evaluations disagree"
    if rows[0]["point"] != ["1"] * 16 or rows[0]["lhs"] != ALL_ONES_D:
        return f"all-ones spot is {rows[0]['lhs']}, expected {ALL_ONES_D}"
    return None
