"""What a process loads: the lazy package names, the modules each CLI
command imports, and no import that nothing reads."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourlines
from fourlines import MatQ, blocks_of_canonical, cli
from fourlines import serialize as ser

from conftest import X1_ENTRIES

SRC = Path(fourlines.__file__).resolve().parent.parent
PERFBENCH = SRC.parent / "perfbench"
TESTS = Path(__file__).resolve().parent

#: Every name the package exported when it imported all submodules at once,
#: with the submodule that defines it.
EXPORTS = {
    "errors": "CertificateFailure DegenerateConfiguration DegenerateLine DegeneratePencil "
              "DimensionError DomainError FourLinesError HypothesisViolation InputError "
              "NoRealSolution NonGenericConfiguration NotConvex NotTotallyPositive "
              "RadicandMismatch SearchFailure SingularMatrixError",
    "exact": "IndexSet MatQ QuadNum",
    "poly": "Poly16 poly_equal",
    "totalpos": "CanonicalForm ConfigBlocks LWParams TPReport Y_SIGN blocks_of_canonical "
                "canonicalize check_tp_config lw_compose lw_factor "
                "random_tp_instance",
    "transversal": "BilinearForm LineRep Quadratic TransversalSolution bilinear_forms "
                   "discriminant_from_minors eliminate_to_quadratic oracle_plucker_solve "
                   "plucker_meet plucker_of_span solve_canonical solve_transversals",
    "identity": "IdentityCertificate printed_FGH symbolic_D symbolic_X verify_identity",
    "curves": "ConvexityReport CurveSpec SampleReport convexity_sample_check curve_eval "
              "epsilon_threshold frenet_basis kappa_of lemma_sample schubert_count "
              "tangent_block tangent_config",
}


def _python(*args: str) -> str:
    """The output of a fresh interpreter that sees the package sources."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
                          timeout=60, check=True)
    return proc.stdout


class TestPackageNames:
    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_the_defining_modules_object(self, module):
        defining = importlib.import_module(f"fourlines.{module}")
        for name in EXPORTS[module].split():
            assert getattr(fourlines, name) is getattr(defining, name), name
            assert name in dir(fourlines), name
            assert name in fourlines.__all__, name

    def test_from_import(self):
        from fourlines import MatQ, solve_transversals, verify_identity
        from fourlines.exact import MatQ as exact_matq
        from fourlines.identity import verify_identity as identity_verify
        from fourlines.transversal import solve_transversals as transversal_solve

        assert (MatQ, solve_transversals, verify_identity) == (
            exact_matq, transversal_solve, identity_verify)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
            fourlines.frobnicate
        assert not hasattr(fourlines, "_certifying_sample")
        assert not hasattr(fourlines, "Rat")
        with pytest.raises(ImportError, match="cannot import name 'frobnicate'"):
            exec("from fourlines import frobnicate", {})

    def test_import_loads_only_errors(self):
        out = _python("-c", "import sys, fourlines; "
                      "print(sorted(m for m in sys.modules if m.startswith('fourlines'))); "
                      "print(fourlines.exact.MatQ is fourlines.MatQ)")
        assert out.split("\n")[:2] == ["['fourlines', 'fourlines.errors']", "True"]


class TestCommandImports:
    def test_verify_identity_loads_six_modules(self, tmp_path):
        out = tmp_path / "cert.json"
        code = (
            "import runpy, sys\n"
            f"sys.argv = ['fourlines', 'verify-identity', '--spots', '1', '--output', {str(out)!r}]\n"
            "try:\n"
            "    runpy.run_module('fourlines.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(sorted(m for m in sys.modules if m.startswith('fourlines')))\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
        )
        assert _python("-c", code).split("\n")[:2] == [str(
            ["fourlines", "fourlines.chart", "fourlines.errors", "fourlines.identity",
             "fourlines.poly", "fourlines.serialize"]), "[]"]
        assert json.loads(out.read_text())["equal"] is True

    def test_library_import_loads_what_the_tracer_wraps(self):
        # The tracer finds the modules it wraps in sys.modules after
        # ``import fourlines.cli``; importing it afterwards must load none.
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
            "import fourlines.cli\n"
            "loaded = set(sys.modules)\n"
            "import tracer\n"
            "wrapped = {m for m, _, _ in tracer.FUNCTION_SPANS} | {'fourlines.curves'}\n"
            "wrapped |= {cls.__module__ for cls, _, _ in tracer.METHOD_SPANS + tracer.METHOD_COUNTS}\n"
            "print(sorted(wrapped - loaded))\n"
            "print(sorted(m for m in set(sys.modules) - loaded if m.startswith('fourlines')))\n"
            "t = tracer.Tracer()\n"
            "t.install()\n"
            "t.restore()\n"
        )
        assert _python("-c", code).split("\n")[:2] == ["[]", "[]"]

    def test_traced_commands_open_the_wrapped_spans(self, tmp_path):
        # A library change that stops calling a name the tracer wraps, or
        # that leaves a command with every exact counter at 0, fails here
        # instead of reading 0 in a traced benchmark run.
        inp, out = tmp_path / "x1.json", tmp_path / "out.json"
        inp.write_text(ser.dumps(ser.blocks_to_obj(blocks_of_canonical(MatQ(X1_ENTRIES)))))
        commands = [["solve", "--input", str(inp)], ["check-tp", "--input", str(inp)],
                    ["curve-sample", "--ts", "1/10,3/10,5/10,7/10", "--epsilon", "auto"]]
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
            "import tracer\n"
            "from fourlines import cli\n"
            "counters = [m for m, (_, how, _) in tracer.METRICS.items()\n"
            "            if how == 'count' and m.startswith('exact.')] + ['exact.max_bits']\n"
            f"for argv in {commands!r}:\n"
            "    t = tracer.Tracer()\n"
            "    t.install()\n"
            f"    status = cli.run(argv + ['--output', {str(out)!r}])\n"
            "    t.restore()\n"
            "    values = tracer.per_layer(t.totals(), 1)\n"
            "    print(json.dumps([status, sorted({span[0] for span in t.spans}),\n"
            "                      {m: values[m][0] for m in counters}]))\n"
        )
        runs = [json.loads(line) for line in _python("-c", code).splitlines()]
        assert [status for status, _, _ in runs] == [0, 0, 0]
        (_, solve, _), (_, check_tp, _), (_, sample, _) = runs
        assert {"transversal.solve", "transversal.forms", "transversal.solve_canonical",
                "totalpos.check_tp_config", "serialize.emit"} <= set(solve)
        assert {"totalpos.check_tp_config", "serialize.emit"} <= set(check_tp)
        assert {"curves.lemma_sample", "serialize.emit"} <= set(sample)
        for _, _, counts in runs:
            assert "exact.inverse_calls" in counts and any(counts.values()), counts


class TestCachedParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_bad_argv_then_good_equals_fresh_process(self, capsys):
        assert cli.run(["verify-identity", "--spots", "3", "--seed", "x"]) == 2
        assert cli.run(["frobnicate"]) == 2
        capsys.readouterr()
        assert cli.run(["verify-identity", "--spots", "2", "--seed", "4"]) == 0
        in_process = capsys.readouterr().out
        fresh = _python("-m", "fourlines.cli", "verify-identity", "--spots", "2", "--seed", "4")
        assert in_process == fresh
        assert json.loads(in_process)["equal"] is True


#: Imports that bind a name the module never reads, by file: the error
#: classes the package re-exports, and the modules ``cli`` loads for the
#: benchmark's tracer (``# noqa: F401`` at its end).
UNREAD_IMPORTS = {
    SRC / "fourlines" / "__init__.py": set(EXPORTS["errors"].split()),
    SRC / "fourlines" / "cli.py": {"curves", "identity", "transversal"},
}


def _unread_imports(path: Path) -> list:
    """Each name an import in ``path`` binds and the module never reads, as
    "file:line name"; a ``__future__`` import binds no name."""
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    allowed = UNREAD_IMPORTS.get(path, set())
    return [f"{path.name}:{node.lineno} {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
            for name in [alias.asname or alias.name.split(".")[0]]
            if name != "*" and name not in read and name not in allowed]


class TestImportsAreRead:
    def test_no_unread_import(self):
        modules = sorted((SRC / "fourlines").rglob("*.py")) + sorted(TESTS.rglob("*.py"))
        assert len(modules) > 20
        assert [hit for path in modules for hit in _unread_imports(path)] == []

    def test_scan_finds_an_unread_import(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text("from __future__ import annotations\nimport os.path\n"
                          "from json import dumps as d, loads\n\n\ndef f():\n    return loads\n")
        assert _unread_imports(module) == ["m.py:2 os", "m.py:3 d"]
