"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import exactcheck as ec  # noqa: E402
import run  # noqa: E402
from fourlines import MatQ  # noqa: E402
from tracer import METRICS, Tracer, per_layer  # noqa: E402

#: Per-layer values that are counts of deterministic work, so must repeat exactly.
EXACT_COUNTS = [m for m in METRICS if m.endswith(("_calls", "_minors")) or ".det_calls." in m]
EXACT_COUNTS += ["exact.quad_ops", "exact.max_bits"]


def _workload(name, tmp_path, seed=0):
    out = tmp_path / "corpus"
    corpus.generate(name, seed, out)
    return run.Workload(name, out, tmp_path)


@pytest.mark.parametrize("name", ["solve-batch", "tp-screen", "curve-tangent", "identity-cli"])
def test_counts_repeat_exactly(name, tmp_path):
    wl = _workload(name, tmp_path)
    counts = []
    for _ in range(2):
        result = run.trace_items(wl)
        values = per_layer(result["totals"], wl.trace_items)
        counts.append({m: values[m][0] for m in EXACT_COUNTS})
        assert [p[1] for p in result["plain"]] == [t[1] for t in result["traced"]]
        assert all(v is None for v in run.check_records(wl, result["traced"]))
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_tracer_restores_every_patch(tmp_path):
    import fourlines.cli
    import fourlines.transversal

    before = (fourlines.cli.check_tp_config, fourlines.transversal.check_tp_config, MatQ.det)
    tracer = Tracer()
    tracer.install()
    assert fourlines.transversal.check_tp_config is not before[1]
    tracer.restore()
    assert (fourlines.cli.check_tp_config, fourlines.transversal.check_tp_config,
            MatQ.det) == before


def test_corpus_is_deterministic_with_the_stated_mix(tmp_path):
    manifests = {}
    for name in run.WORKLOADS:
        a = corpus.generate(name, 7, tmp_path / name / "a")
        b = corpus.generate(name, 7, tmp_path / name / "b")
        assert run._tree_digest(tmp_path / name / "a") == run._tree_digest(tmp_path / name / "b")
        manifests[name] = a["items"]
    solve = manifests["solve-batch"]
    assert sum(i["bound"] == corpus.LARGE_BOUND for i in solve) * 5 == len(solve)
    screen = manifests["tp-screen"]
    assert sum(i["kind"] == "tp" for i in screen) * 10 == len(screen) * 6
    for kind, positions in corpus.BUCKETS.items():
        assert all(i["witness_position"] in positions for i in screen if i["kind"] == kind)
    curve = manifests["curve-tangent"]
    assert sum(i["refused"] for i in curve) * 20 == len(curve)
    assert [i["spots"] for i in manifests["identity-cli"][:6]] == [1, 9, 1, 9, 1, 1]


def test_own_determinant_and_scan_match_the_library(tmp_path):
    rng = random.Random(3)
    for _ in range(50):
        cols = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
                for _ in range(4)]
        assert ec.det4_laplace(cols) == MatQ.from_cols(cols).det()
    wl = _workload("tp-screen", tmp_path)
    records = [run.run_item(wl, i) for i in range(20)]
    assert all(v is None for v in run.check_records(wl, records))


def _flip_first_rational(obj, path):
    """Replace the rational at ``path`` inside ``obj`` by itself plus one."""
    *head, last = path
    for key in head:
        obj = obj[key]
    obj[last] = ec.rat_str(ec.rat(obj[last]) + 1)


def _corrupted(record, path):
    """A copy of ``record`` whose CLI output has one rational changed."""
    bad = json.loads(record["text"])
    _flip_first_rational(bad, path)
    return dict(record, text=json.dumps(bad))


def test_corrupted_outputs_count_as_failed(tmp_path):
    wl = _workload("solve-batch", tmp_path)
    item = wl.items[0]
    _, record = wl.run(item, 0)
    assert wl.check(item, record) is None
    assert wl.check(item, _corrupted(record, ["lines", 0, "span", 1, 0, "a"])) is not None
    assert wl.check(item, dict(record, outcome=3)) is not None

    wl = _workload("tp-screen", tmp_path / "tp")
    item = wl.items[5]  # a non-TP mutation with a late witness
    _, record = wl.run(item, 5)
    assert wl.check(item, record) is None
    assert wl.check(item, _corrupted(record, ["witness", "minor"])) is not None

    wl = _workload("curve-tangent", tmp_path / "curve")
    item = wl.items[0]
    _, record = wl.run(item, 0)
    assert wl.check(item, record) is None
    assert wl.check(item, _corrupted(record, ["W", 2, 1])) is not None
    line = record["solution"]["lines"][0]
    line[1][0][0] = ec.rat_str(ec.rat(line[1][0][0]) + 1)
    assert wl.check(item, record) is not None
    refused = wl.items[corpus.REFUSED_EVERY - 1]
    assert wl.check(refused, {"outcome": "SearchFailure", "text": "", "solution": None}) is None
    assert wl.check(refused, dict(record, outcome=0)) is not None

    good = json.dumps({"equal": True, "difference": "0", "spot_evaluations": [
        {"point": ["1"] * 16, "lhs": "320", "rhs": "320"}]})
    assert checks.check_identity(1, 0, good) is None
    assert checks.check_identity(1, 0, good.replace('"rhs": "320"', '"rhs": "321"')) is not None


def test_reference_speed_cancels_machine_speed_only():
    from reference import REF_MS, at_reference_speed

    times, ref = [0.010, 0.020, 0.030], REF_MS / 1000
    assert at_reference_speed(times, [ref] * 4) == pytest.approx(times)
    # A machine half as fast slows items and references alike.
    assert at_reference_speed([2 * t for t in times], [2 * ref] * 4) == pytest.approx(times)
    # A program half as fast slows only the items.
    assert at_reference_speed([2 * t for t in times], [ref] * 4) == pytest.approx(
        [2 * t for t in times])
    with pytest.raises(ValueError):
        at_reference_speed(times, [ref] * 3)


def test_benchmark_json_names_every_reported_metric(tmp_path):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    traced = set(per_layer(Tracer().totals(), 1)) | {"cli.import_ms", "trace.overhead_ratio"}
    assert {m["name"] for m in doc["per_layer"]} == traced
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-batch",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
