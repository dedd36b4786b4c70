"""Seeded input corpus of every workload.

``python3 perfbench/corpus.py --workload W --seed N --out DIR`` starts a
fresh interpreter, imports ``fourlines.cli`` and writes the workload's
input files plus ``manifest.json`` into DIR; the benchmark times exactly
this as its set-up.  The same seed always gives byte-identical files.

The manifest lists the timed items in order, then the warm-up items.  An
item is the command line after ``fourlines`` (paths relative to DIR; the
literal ``OUT`` names the output file) plus what the checks need.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import fourlines.cli  # noqa: E402,F401  (set-up time includes the CLI import)
from fourlines import random_tp_instance  # noqa: E402

import exactcheck as ec  # noqa: E402

#: Distinct timed items per workload; a run longer than the corpus cycles it.
CORPUS_SIZE = {"solve-batch": 200, "tp-screen": 200, "curve-tangent": 200, "identity-cli": 120}
WARMUP = 2

#: solve-batch: every fifth instance uses the large coefficient bound.
SMALL_BOUND, LARGE_BOUND, LARGE_EVERY = 10, 10**30, 5
#: tp-screen: the non-TP kinds by slot in a period of ten; the other six
#: slots are TP, so the median item lies inside the TP group, not between groups.
TP_SCREEN_PERIOD = 10
MUTATIONS = {1: "early", 3: "middle", 5: "late", 7: "permute"}
#: The witness position buckets split the 70 lexicographic column sets in thirds.
BUCKETS = {"early": range(0, 23), "middle": range(23, 47), "late": range(47, 70)}
#: curve-tangent: convex curves in rotation; every twentieth item is refused.
CONVEX_CURVES = ("moment", "quartic-1/10", "quartic-1/4")
REFUSED_CURVE, REFUSED_EVERY = "quartic-1", 20
QUARTIC_C = {"quartic-1/10": Fraction(-1, 10), "quartic-1/4": Fraction(-1, 4), "quartic-1": Fraction(-1)}
#: identity-cli: spot counts cycle through these; the 3:2 split puts the
#: median item inside the S = 1 group rather than between the two groups.
SPOTS = (1, 9, 1, 9, 1)
#: Items in one whole period of each workload's mix; runs stop at a period's end.
PERIOD = {"solve-batch": LARGE_EVERY, "tp-screen": TP_SCREEN_PERIOD,
          "curve-tangent": REFUSED_EVERY, "identity-cli": len(SPOTS)}


def _rows(block) -> list:
    return [[ec.rat_str(x) for x in row] for row in block]


def _write_blocks(path: Path, blocks) -> None:
    path.write_text(json.dumps({"blocks": [_rows(b) for b in blocks]}) + "\n")


def _tp_blocks(seed: int, bound: int) -> list:
    _, blocks = random_tp_instance(seed, bound)
    return [[list(row) for row in w.entries()] for w in blocks.blocks()]


def _solve_batch(rng, out: Path, n: int) -> list:
    items = []
    for i in range(n):
        bound = LARGE_BOUND if i % LARGE_EVERY == LARGE_EVERY - 1 else SMALL_BOUND
        name = f"inst-{i:04d}.json"
        _write_blocks(out / name, _tp_blocks(rng.randrange(2**32), bound))
        items.append({"argv": ["solve", "--input", name, "--output", "OUT"],
                      "input": name, "bound": bound})
    return items


def _det3(a, rows, cols) -> int:
    (p, q, r), (x, y, z) = rows, cols
    return (a[x][p] * (a[y][q] * a[z][r] - a[z][q] * a[y][r])
            - a[y][p] * (a[x][q] * a[z][r] - a[z][q] * a[x][r])
            + a[z][p] * (a[x][q] * a[y][r] - a[y][q] * a[x][r]))


def _targeted_mutation(rng, blocks, targets):
    """Change one entry so that the first non-positive maximal minor sits at
    one of the lexicographic positions ``targets``, or return None.

    Every maximal minor is affine in a single entry, with the signed 3x3
    cofactor as slope, so the shifts keeping all earlier minors positive
    form an open interval; the shift is taken from its part where the
    target minor is non-positive.  Columns are scaled to integers first,
    which keeps every minor's sign.
    """
    cols = ec.config_columns(blocks)
    scales = [math.lcm(*(x.denominator for x in c)) for c in cols]
    a = [tuple(int(x * s) for x in c) for c, s in zip(cols, scales)]
    base = [ec.det4_laplace([a[c] for c in cs]) for cs in ec.COLSETS]
    for target in rng.sample(targets, len(targets)):
        entries = [(r, c) for c in ec.COLSETS[target] for r in range(4)]
        for r, col in rng.sample(entries, len(entries)):
            rows = tuple(i for i in range(4) if i != r)
            lo = hi = None  # open interval of shifts keeping earlier minors positive
            slope = 0
            for pos in range(target + 1):
                cs = ec.COLSETS[pos]
                if col not in cs:
                    continue
                j = cs.index(col)
                slope = (-1) ** (r + j) * _det3(a, rows, [c for c in cs if c != col])
                if pos == target or slope == 0:
                    continue
                bound = Fraction(-base[pos], slope)
                if slope > 0:
                    lo = bound if lo is None else max(lo, bound)
                else:
                    hi = bound if hi is None else min(hi, bound)
            if slope == 0 or (lo is not None and hi is not None and lo >= hi):
                continue
            # Flip the sign so the target is non-positive exactly for shifts <= zero.
            sign = 1 if slope > 0 else -1
            zero = Fraction(-base[target], slope) * sign
            if sign < 0:
                lo, hi = (None if hi is None else -hi), (None if lo is None else -lo)
            top = zero if hi is None or zero < hi else hi
            if lo is not None and lo >= top:
                continue
            width = top - lo if lo is not None else abs(top) + 1
            u = Fraction(rng.randint(0 if top == zero else 1, 8), 9)  # 0: the minor is exactly zero
            mutated = [[list(row) for row in b] for b in blocks]
            mutated[col // 2][r][col % 2] += sign * (top - u * width) / scales[col]
            return mutated
    return None


def _non_tp(rng, kind: str) -> tuple:
    """A non-TP mutation of a fresh TP instance and its witness position."""
    while True:
        blocks = _tp_blocks(rng.randrange(2**32), SMALL_BOUND)
        if kind == "permute":
            order = list(range(4))
            while order == sorted(order):
                rng.shuffle(order)
            mutated = [blocks[j] for j in order]
        else:
            mutated = _targeted_mutation(rng, blocks, BUCKETS[kind])
        if mutated is None or not all(ec.block_rank_ok(b) for b in mutated):
            continue
        found = ec.tp_scan(mutated)
        if found is not None and (kind == "permute" or found[0] in BUCKETS[kind]):
            return mutated, found[0]


def _tp_screen(rng, out: Path, n: int) -> list:
    items = []
    for i in range(n):
        name = f"inst-{i:04d}.json"
        kind = MUTATIONS.get(i % TP_SCREEN_PERIOD, "tp")
        if kind == "tp":
            blocks, position = _tp_blocks(rng.randrange(2**32), SMALL_BOUND), None
        else:
            blocks, position = _non_tp(rng, kind)
        _write_blocks(out / name, blocks)
        items.append({"argv": ["check-tp", "--input", name, "--output", "OUT"],
                      "input": name, "kind": kind, "witness_position": position})
    return items


def _curve_file(out: Path, name: str) -> str:
    components = [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1", ec.rat_str(QUARTIC_C[name])]]
    fname = "curve-" + name.replace("/", "_") + ".json"
    (out / fname).write_text(json.dumps({"kind": "polynomial", "components": components}) + "\n")
    return fname


def _curve_tangent(rng, out: Path, n: int) -> list:
    files = {name: _curve_file(out, name) for name in QUARTIC_C}
    items = []
    for i in range(n):
        refused = i % REFUSED_EVERY == REFUSED_EVERY - 1
        curve = REFUSED_CURVE if refused else CONVEX_CURVES[i % len(CONVEX_CURVES)]
        while True:
            ks = sorted(rng.sample(range(1, 100), 4))
            # On (1, t, t^2, t^3 - t^4) the four sample values have determinant
            # Vandermonde * (1 - sum(ts)), negative for every epsilon once
            # sum(ts) > 1, so a refused item provably has no certificate.
            if not refused or sum(ks) > 100:
                break
        ts = ",".join(f"{k}/100" for k in ks)
        argv = ["curve-sample", "--ts", ts, "--epsilon", "auto"]
        if curve != "moment":
            argv += ["--curve", files[curve]]
        items.append({"argv": argv + ["--output", "OUT"], "curve": curve,
                      "curve_file": files.get(curve), "ts": ts, "refused": refused})
    return items


def _identity_cli(rng, out: Path, n: int) -> list:
    items = []
    for i in range(n):
        spots, seed = SPOTS[i % len(SPOTS)], rng.randrange(10**6)
        items.append({"argv": ["verify-identity", "--spots", str(spots), "--seed", str(seed)],
                      "spots": spots})
    return items


GENERATORS = {
    "solve-batch": _solve_batch,
    "tp-screen": _tp_screen,
    "curve-tangent": _curve_tangent,
    "identity-cli": _identity_cli,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs and manifest into ``out``; return the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    items = GENERATORS[workload](rng, out, CORPUS_SIZE[workload] + WARMUP)
    manifest = {"workload": workload, "seed": seed, "period": PERIOD[workload],
                "items": items[:-WARMUP], "warmup": items[-WARMUP:]}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
