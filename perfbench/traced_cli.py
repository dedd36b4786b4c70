"""``python3 perfbench/traced_cli.py TRACE_FILE ARGS...`` runs
``fourlines ARGS...`` in this fresh process with the tracer installed,
then writes the spans and totals to TRACE_FILE.  Traced runs use it for
workloads that start one process per item.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import fourlines.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = fourlines.cli.run(sys.argv[2:])
    finally:
        tracer.restore()
    tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
