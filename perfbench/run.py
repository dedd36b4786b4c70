"""Benchmark of the ``fourlines`` CLI and library on one workload.

    python3 perfbench/run.py --workload solve-batch --seed 0 --seconds 20 --trace 0

Run it from anywhere inside a checkout that holds ``src/fourlines``.  Each
run sets up its input corpus from ``--seed`` in fresh interpreters (timed
as ``setup_s``), warms up, then sends items one at a time, each only after
the previous one has finished (a closed loop with one client), for
``--seconds`` seconds and at least ``MIN_ITEMS`` items.  Every time it
reports (items and set-ups) is scaled to one machine speed by a reference
workload timed next to it (see ``reference``).  Outputs are checked after
the timed loop.  With ``--trace 1`` it instead runs a fixed prefix of
the corpus, each item once plain and once with the tracer installed, and
reports the per-layer metrics of ``tracer.METRICS``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"

WORKLOADS = ("solve-batch", "tp-screen", "curve-tangent", "identity-cli")
#: p90 needs at least ten samples beyond it.
MIN_ITEMS = 100
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: The output digest covers this many leading items, which every run reaches.
DIGEST_ITEMS = 100
#: Items of a traced run, in whole periods of each workload's mix.
TRACE_PERIODS = {"solve-batch": 4, "tp-screen": 4, "curve-tangent": 1, "identity-cli": 2}
#: Interpreter starts per side when timing ``import fourlines.cli``.
IMPORT_SAMPLES = 5
#: End-to-end metrics of an untraced run and their units.
END_TO_END = {"items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def set_up(workload: str, seed: int, work: Path, times: int) -> tuple:
    """Generate the corpus ``times`` times in fresh interpreters.

    Returns the corpus directory, the wall time of each set-up and the
    reference times around them (see ``reference``).  Every set-up must
    write byte-identical files.
    """
    from reference import reference

    durations, refs, digests = [], [], set()
    for k in range(times):
        refs.append(reference())
        out = work / f"corpus{k}"
        cmd = [sys.executable, str(HERE / "corpus.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=_child_env(), cwd=work, capture_output=True, text=True)
        durations.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"corpus set-up failed:\n{proc.stderr}")
        digests.add(_tree_digest(out))
        if k:
            shutil.rmtree(out)
    refs.append(reference())
    if len(digests) != 1:
        raise RuntimeError("corpus set-up is not deterministic")
    return work / "corpus0", durations, refs


class Workload:
    """Runs and checks the items of one workload's corpus."""

    def __init__(self, name: str, corpus: Path, work: Path):
        # Imported here, not at the top: main() first checks that the sources exist.
        import fourlines.cli
        import fourlines.curves
        import fourlines.serialize
        import fourlines.transversal

        self.name, self.corpus, self.work = name, corpus, work
        self.cli, self.curves, self.transversal = fourlines.cli, fourlines.curves, fourlines.transversal
        manifest = json.loads((corpus / "manifest.json").read_text())
        self.items, self.warmup = manifest["items"], manifest["warmup"]
        self.period = manifest["period"]
        self.trace_items = TRACE_PERIODS[name] * self.period
        self.out = work / "out.json"
        self.records = work / "records"
        self.records.mkdir(exist_ok=True)
        self.child_rss_kb = 0
        self.trace_dir = None  # set by traced runs of child-process workloads
        curves = {None: fourlines.curves.CurveSpec.moment()}
        for item in self.items + self.warmup:
            argv = item["argv"]
            item["_argv"] = [str(self.out) if arg == "OUT" else
                             str(corpus / arg) if flag in ("--input", "--curve") else arg
                             for flag, arg in zip([None] + argv, argv)]
            if "curve" in item:
                name = item["curve_file"]
                if name not in curves:
                    obj = json.loads((corpus / name).read_text())
                    curves[name] = fourlines.serialize.curve_spec_from_obj(obj)
                item["_curve"] = curves[name]
                item["_ts"] = tuple(Fraction(t) for t in item["ts"].split(","))

    def run(self, item, index) -> tuple:
        """Run one item; return its wall time and its record.

        The record holds the outcome (the exit code, or the name of the
        exception that ended the item), the CLI's JSON output and, for
        curve items, the library's tangent blocks and solution lines.
        """
        if self.name == "identity-cli":
            return self._run_child(item, index)
        argv = item["_argv"]
        if self.out.exists():
            self.out.unlink()
        solved = None
        start = time.perf_counter()
        try:
            outcome = self.cli.run(argv)
            if outcome == 0 and self.name == "curve-tangent":
                config = self.curves.tangent_config(item["_curve"], item["_ts"])
                solved = (config, self.transversal.solve_transversals(config))
        except Exception as exc:  # an item that raises is recorded, then checked
            outcome = type(exc).__name__
        seconds = time.perf_counter() - start
        text = self.out.read_text() if self.out.exists() else ""
        return seconds, {"outcome": outcome, "text": text,
                         "solution": None if solved is None else _solution_record(*solved)}

    def _run_child(self, item, index) -> tuple:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "fourlines.cli", *item["argv"]]
        else:
            trace_file = self.trace_dir / f"item{index}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *item["argv"]]
        with open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=_child_env(), cwd=self.work,
                                    stdout=subprocess.PIPE, stderr=err)
            text = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return seconds, {"outcome": proc.returncode, "text": text.decode(), "solution": None}

    def record(self, key) -> dict:
        return json.loads((self.records / key).read_text())

    def peak_rss_mb(self) -> float:
        if self.name == "identity-cli":
            return self.child_rss_kb / 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check(self, item, record) -> str | None:
        import checks

        outcome, text = record["outcome"], record["text"]
        if self.name == "identity-cli":
            return checks.check_identity(item["spots"], outcome, text)
        if self.name in ("solve-batch", "tp-screen"):
            blocks = checks.read_blocks(self.corpus / item["input"])
            check = checks.check_solve if self.name == "solve-batch" else checks.check_tp
            return check(blocks, outcome, text)
        comps = checks.curve_components(
            None if item["curve_file"] is None else self.corpus / item["curve_file"])
        ts = item["_ts"]
        if item["refused"]:
            if not checks.refusal_is_right(comps, ts):
                return "the corpus marks a certifiable item as refused"
            if outcome == "SearchFailure" or (outcome == 3 and '"ok": true' not in text):
                return None
            return f"refused item ended with {outcome!r}"
        return (checks.check_curve_sample(comps, ts, outcome, text)
                or checks.check_tangent_solution(comps, ts, record["solution"]))


def _solution_record(config, solution) -> dict:
    """Tangent blocks and solution lines as rational strings; a QuadNum is [a, b, d]."""
    def quad(x):
        return [str(x.a), str(x.b), str(x.d)] if hasattr(x, "d") else [str(x), "0", "0"]

    return {"blocks": [[[str(x) for x in row] for row in w.entries()] for w in config.blocks()],
            "lines": [[[quad(x) for x in row] for row in ln.span.entries()]
                      for ln in solution.lines]}


def run_item(wl: Workload, i: int) -> tuple:
    """Run the corpus item at position ``i`` (cycled); return (seconds, record key).

    Records go to disk, keyed by their sha256, so memory stays flat.
    """
    seconds, record = wl.run(wl.items[i % len(wl.items)], i)
    blob = json.dumps(record).encode()
    key = hashlib.sha256(blob).hexdigest()
    path = wl.records / key
    if not path.exists():
        path.write_bytes(blob)
    return seconds, key


def run_items(wl: Workload, seconds: float) -> tuple:
    """Closed loop over the corpus for ``seconds`` and at least ``MIN_ITEMS``
    items, ending with a whole period of the mix so every run has it exactly.

    Returns the item results and the reference times taken before each item
    and after the last (see ``reference``).
    """
    from reference import reference

    results, refs = [], []
    begin = time.perf_counter()
    while len(results) < MIN_ITEMS or time.perf_counter() - begin < seconds or (
            len(results) % wl.period):
        refs.append(reference())
        results.append(run_item(wl, len(results)))
    refs.append(reference())
    return results, refs


def trace_items(wl: Workload) -> dict:
    """The traced prefix of the corpus: each item untraced, then traced, so
    a change in machine speed hits both sides alike.

    Returns both result lists, the merged tracer totals and all spans.
    """
    from tracer import Tracer, merge

    tracer = Tracer()
    children = wl.name == "identity-cli"
    trace_dir = wl.work / "traces"
    trace_dir.mkdir(exist_ok=True)
    plain, traced = [], []
    for i in range(wl.trace_items):
        wl.trace_dir = None
        plain.append(run_item(wl, i))
        if children:
            wl.trace_dir = trace_dir
        else:
            tracer.item = i
            tracer.install()
        try:
            traced.append(run_item(wl, i))
        finally:
            tracer.restore()
    wl.trace_dir = None
    if not children:
        return {"plain": plain, "traced": traced, "totals": tracer.totals(),
                "spans": tracer.spans}
    child_traces = [json.loads((trace_dir / f"item{i}.json").read_text())
                    for i in range(wl.trace_items)]
    spans = []  # one list for all items: shift each child's parent indices
    for i, t in enumerate(child_traces):
        base = len(spans)
        spans += [[name, start, end, None if parent is None else parent + base, i]
                  for name, start, end, parent, _ in t["spans"]]
    return {"plain": plain, "traced": traced, "totals": merge(child_traces), "spans": spans}


def check_records(wl: Workload, results) -> list:
    """A failure reason (or None) per item.  Each distinct record of an input
    is checked once; an input whose output changes between runs fails."""
    verdicts, seen, first_key = [], {}, {}
    for i, (_, key) in enumerate(results):
        index = i % len(wl.items)
        if (index, key) not in seen:
            if first_key.setdefault(index, key) != key:
                verdict = "output differs from an earlier run of the same input"
            else:
                try:
                    verdict = wl.check(wl.items[index], wl.record(key))
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    verdict = f"malformed output: {type(exc).__name__}: {exc}"
            seen[index, key] = verdict
        verdicts.append(seen[index, key])
    return verdicts


def output_digest(wl: Workload, results) -> str:
    """sha256 over the outcome and CLI output of the leading items, in order."""
    h = hashlib.sha256()
    for i, (_, key) in enumerate(results[:DIGEST_ITEMS]):
        record = wl.record(key)
        h.update(f"{i}\t{record['outcome']}\n".encode() + record["text"].encode())
    return h.hexdigest()


def _warm(wl: Workload) -> None:
    for j, item in enumerate(wl.warmup):
        wl.run(item, -1 - j)


def _report_failures(verdicts) -> None:
    for i, reason in [(i, v) for i, v in enumerate(verdicts) if v is not None][:5]:
        print(f"  FAILED item {i}: {reason}")


def untraced_run(workload: str, seed: int, seconds: int, work: Path) -> dict:
    from reference import REF_MS, at_reference_speed

    corpus, setups, setup_refs = set_up(workload, seed, work, SETUPS)
    wl = Workload(workload, corpus, work)
    _warm(wl)
    records, refs = run_items(wl, seconds)
    rss = wl.peak_rss_mb()
    verdicts = check_records(wl, records)
    failed = sum(v is not None for v in verdicts)
    wall = [r[0] for r in records]
    times = at_reference_speed(wall, refs)
    values = {
        "items_per_s": (len(records) - failed) / sum(times),
        "item_ms_p50": statistics.median(times) * 1000,
        "item_ms_p90": statistics.quantiles(times, n=10)[8] * 1000,
        "setup_s": statistics.median(at_reference_speed(setups, setup_refs)),
        "peak_rss_mb": rss,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    samples = dict.fromkeys(END_TO_END, len(records)) | {"setup_s": len(setups), "peak_rss_mb": 1}
    print(f"workload {workload}  seed {seed}  closed loop, 1 client, {seconds} s; item times "
          f"at reference speed ({REF_MS} ms reference, measured median "
          f"{statistics.median(refs) * 1000:.3f} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.4f} {unit:<4} (n={samples[name]})")
    print(f"  {'wall p50, p90':<14} {statistics.median(wall) * 1000:12.4f} ms   "
          f"{statistics.quantiles(wall, n=10)[8] * 1000:.4f} ms (as measured, not scaled)")
    print(f"  {'fail_ratio':<14} {failed / len(records):12.4f} -    "
          f"({failed} of {len(records)} items failed)")
    print(f"  output digest  sha256:{output_digest(wl, records)} (items 0-{DIGEST_ITEMS - 1})")
    _report_failures(verdicts)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def import_ms() -> float:
    """Median of (fresh ``import fourlines.cli``) minus (bare interpreter start)."""
    diffs = []
    for _ in range(IMPORT_SAMPLES):
        pair = []
        for code in ("pass", "import fourlines.cli"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True)
            pair.append(time.perf_counter() - start)
        diffs.append(pair[1] - pair[0])
    return statistics.median(diffs) * 1000


def traced_run(workload: str, seed: int, work: Path) -> dict:
    from tracer import per_layer

    corpus, _, _ = set_up(workload, seed, work, 1)
    wl = Workload(workload, corpus, work)
    count = wl.trace_items
    _warm(wl)
    run = trace_items(wl)
    verdicts = [v if p[1] == t[1] else "tracing changed the output"
                for v, p, t in zip(check_records(wl, run["traced"]), run["plain"], run["traced"])]
    failed = sum(v is not None for v in verdicts)
    plain_s, traced_s = (sum(r[0] for r in run[side]) for side in ("plain", "traced"))
    metrics = per_layer(run["totals"], count)
    metrics["cli.import_ms"] = (import_ms(), "ms")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    RESULTS.mkdir(exist_ok=True)
    trace_file = RESULTS / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({"workload": workload, "seed": seed, "items": count,
                                      "spans": run["spans"], **run["totals"]}))
    print(f"workload {workload}  seed {seed}  traced, {count} items")
    print(f"  trace overhead: {count / plain_s:.3f} items/s untraced, "
          f"{count / traced_s:.3f} items/s traced")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<34} {value:14.4f} {unit}")
    print(f"  spans written to {trace_file.relative_to(ROOT)}")
    _report_failures(verdicts)
    return {"correct": failed == 0, "attempted": count, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="fourlines benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fourlines" / "cli.py").is_file():
        print(f"error: no fourlines sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, work)
        else:
            result = untraced_run(args.workload, args.seed, args.seconds, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
