"""List the ``raise`` statements of ``src/fourlines`` that the Tier-1 tests never run.

Run from the repository root (extra arguments go to pytest):

    PYTHONPATH=src python tests/raise_sites.py

The script runs the test suite in this process under a ``sys.settrace``
hook that records which raise lines execute, then prints every site that
never ran and is not on ``ALLOWED``, and every ``ALLOWED`` site that now
runs.  It exits 1 when it prints either, or when the tests fail.  Raises
reached only in the suite's child processes (``python -O``, start-up
checks) count as never run.  pytest does not collect this file.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import fourlines

ROOT = Path(__file__).resolve().parent.parent
#: The package the tests import, wherever it is installed.
SRC = Path(fourlines.__file__).parent

#: (file, function, first line of the raise) -> why no test runs it.
ALLOWED = {
    ("curves.py", "schubert_count",
     'raise CertificateFailure(f"Schubert count {number_text(num)}/{number_text(den)} is not an integer")'):
        "defensive: the product formula is an integer for every 0 <= k < n",
    ("transversal.py", "LineRep.from_span", 'raise DegenerateLine("Pluecker quadric violated")  # pragma: no cover'):
        "defensive: the wedge of two vectors always lies on the Pluecker quadric",
    ("transversal.py", "LineRep.normalized_plucker", 'raise DegenerateLine("zero Pluecker vector")'):
        "defensive: from_span refuses a rank < 2 span and the solver's certificate a zero line",
    ("transversal.py", "_sqrt_in_context", 'raise NoRealSolution(f"negative discriminant {number_text(disc)}")'):
        "its one caller, the oracle, returns no line for a negative discriminant first",
    ("transversal.py", "oracle_plucker_solve", "raise DegenerateConfiguration("):
        "the oracle's degenerate branches: the oracle is to move to the tests (ROADMAP item 2)",
    ("transversal.py", "oracle_plucker_solve",
     'raise DegenerateConfiguration("the whole incidence plane lies on the quadric")'):
        "the oracle's degenerate branches: the oracle is to move to the tests (ROADMAP item 2)",
    ("transversal.py", "span_from_plucker", 'raise DegenerateLine("zero Pluecker vector")'):
        "called only on the oracle's solutions, which are non-zero and decomposable (ROADMAP item 2)",
    ("transversal.py", "span_from_plucker", 'raise DegenerateLine("Pluecker vector has rank < 2")'):
        "called only on the oracle's solutions, which are non-zero and decomposable (ROADMAP item 2)",
}


def raise_sites() -> dict:
    """(file, function, first line) -> [(path, line number)] of every raise under SRC."""
    sites: dict = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                name = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.Raise):
                    key = (path.name, scope or "<module>", lines[child.lineno - 1].strip())
                    sites.setdefault(key, []).append((str(path), child.lineno))
                walk(child, name)

        walk(ast.parse(text), "")
    return sites


def trace_tests(pending: dict, args: list) -> int:
    """Run pytest with a tracer that removes each executed line from
    ``pending`` (path -> set of raise lines).  Only code objects that hold
    a raise line still pending get a line tracer."""
    wanted: dict = {}

    def local(frame, event, arg):
        if event == "line":
            pending[frame.f_code.co_filename].discard(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        lines = wanted.get(code)
        if lines is None:
            todo = pending.get(code.co_filename, set())
            lines = wanted[code] = {n for _, _, n in code.co_lines()} & todo
        return local if lines and not lines.isdisjoint(pending[code.co_filename]) else None

    sys.settrace(on_call)
    try:
        return pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)


def main(args: list) -> int:
    sites = raise_sites()
    pending: dict = {}
    for where in sites.values():
        for path, line in where:
            pending.setdefault(path, set()).add(line)
    status = trace_tests(pending, args)
    missed = [key for key, where in sites.items() for path, line in where if line in pending[path]]
    never = set(missed)
    count = sum(len(where) for where in sites.values())
    print(f"\n{len(missed)} of {count} raise sites never ran; "
          f"{sum(key in ALLOWED for key in missed)} allowlisted")
    unexplained = sorted(never - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - never)
    for file, scope, text in unexplained:
        print(f"never ran, not allowlisted: {file}:{scope}: {text}")
    for file, scope, text in stale:
        print(f"allowlisted but ran or gone: {file}:{scope}: {text}")
    return 1 if status or unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
