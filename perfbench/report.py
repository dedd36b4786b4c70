"""Run every workload once untraced and once traced, printing all metrics.

    python3 perfbench/report.py [--seed 0] [--seconds 20]

For each workload this prints the end-to-end metrics with unit and sample
count, the output digest, then the per-layer metrics of the traced run and
its tracing overhead.  It exits non-zero if any run fails or any output is
wrong.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(proc.stderr, file=sys.stderr)
                ok = False
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
