"""Command-line front end.

Exit codes: 0 success, 2 input/parse error, 3 hypothesis violation
(non-totally-positive input, failed sampling search), 4 degenerate
configuration or singular matrix, 5 failed certificate.  Every library
error maps to one of them (see ``fourlines.errors``).
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import serialize as ser
from .errors import (
    CertificateFailure,
    DegenerateConfiguration,
    FourLinesError,
    HypothesisViolation,
    InputError,
    SearchFailure,
    SingularMatrixError,
)

# Each command imports the library functions it runs, so a process loads
# only the modules of the command it was started for.
if TYPE_CHECKING:
    from .curves import CurveSpec

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_DEGENERATE = 4
EXIT_CERTIFICATE = 5


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (parsing keeps no state in it)."""
    parser = argparse.ArgumentParser(
        prog="fourlines",
        description="Exact solver for the two transversals of four totally positive lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-tp", help="check total positivity of a configuration")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("factor", help="recover the 16 factorization parameters of a TP matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("solve", help="solve for the two transversal lines")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--batch", help="directory of instance files to solve")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("verify-identity", help="certify the discriminant decomposition")
    p.add_argument("--spots", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("curve-sample", help="epsilon-sampling certificate on a curve")
    p.add_argument("--ts", required=True, help="comma-separated rationals, e.g. 1/10,3/10,5/10,7/10")
    p.add_argument("--epsilon", default="auto")
    p.add_argument("--curve", help="curve spec JSON file (default: rational normal curve)")
    p.add_argument("--output")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("schubert-count", help="count solutions of the general Schubert problem")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("convexity-check", help="sampled necessary convexity conditions")
    p.add_argument("--curve")
    p.add_argument("--grid", type=int, default=12)
    p.add_argument("--output")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("random-instance", help="generate a random totally positive instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--output")
    return parser


def _read_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return ser.loads(text)


def _emit(obj, output, fmt="json"):
    text = ser.dumps(obj) if fmt == "json" else _render_text(obj)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _render_text(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, val in obj.items():
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
        return "\n".join(lines) + ("\n" if indent == 0 else "")
    if isinstance(obj, list):
        lines = []
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}- {val}")
        return "\n".join(lines)
    return f"{pad}{obj}"


def _load_curve(path) -> CurveSpec:
    from .curves import CurveSpec

    if not path:
        return CurveSpec.moment()
    return ser.curve_spec_from_obj(_read_json(path))


def _cmd_check_tp(args) -> int:
    from .totalpos import check_tp_config

    blocks = ser.blocks_from_obj(_read_json(args.input))
    report = check_tp_config(blocks)
    _emit(ser.tp_report_to_obj(report), args.output, args.format)
    return EXIT_OK if report.ok else EXIT_HYPOTHESIS


def _cmd_factor(args) -> int:
    from .totalpos import lw_factor

    x = ser.mat_from_obj(_read_json(args.input))
    params = lw_factor(x)
    _emit(ser.params_to_obj(params), args.output, args.format)
    return EXIT_OK


def _cmd_solve(args) -> int:
    from .transversal import solve_transversals

    if args.batch:
        indir = Path(args.batch)
        if not indir.is_dir():
            raise InputError(f"--batch {args.batch}: not a directory")
        outdir = Path(args.output) if args.output else indir
        outdir.mkdir(parents=True, exist_ok=True)
        worst = EXIT_OK
        for path in sorted(indir.glob("*.json")):
            if path.name.endswith(".solution.json"):
                continue
            try:
                sol = solve_transversals(ser.blocks_from_obj(_read_json(str(path))))
                text = ser.dumps(ser.solution_to_obj(sol))
            except FourLinesError as exc:
                sys.stderr.write(f"{path.name}: {exc}\n")
                worst = max(worst, _code_of(exc))
                continue
            (outdir / (path.stem + ".solution.json")).write_text(text)
        return worst
    if not args.input:
        raise InputError("solve needs --input or --batch")
    sol = solve_transversals(ser.blocks_from_obj(_read_json(args.input)))
    _emit(ser.solution_to_obj(sol), args.output, args.format)
    return EXIT_OK


def _cmd_verify_identity(args) -> int:
    from .identity import verify_identity

    cert = verify_identity(spot_count=args.spots, seed=args.seed)
    _emit(cert.to_obj(), args.output, args.format)
    return EXIT_OK


def _cmd_curve_sample(args) -> int:
    from .curves import MAX_CURVE_LITERAL, _certifying_sample, lemma_sample

    curve = _load_curve(args.curve)
    ts = tuple(ser.rat_from_str(part, MAX_CURVE_LITERAL) for part in args.ts.split(","))
    if args.epsilon == "auto":
        report = _certifying_sample(curve, ts)
    else:
        report = lemma_sample(curve, ts, ser.rat_from_str(args.epsilon, MAX_CURVE_LITERAL))
    _emit(ser.sample_report_to_obj(report), args.output, args.format)
    return EXIT_OK if report.ok else EXIT_HYPOTHESIS


def _cmd_schubert(args) -> int:
    from .curves import schubert_count

    sys.stdout.write(f"{schubert_count(args.k, args.n)}\n")
    return EXIT_OK


def _cmd_convexity(args) -> int:
    from .curves import convexity_sample_check

    curve = _load_curve(args.curve)
    report = convexity_sample_check(curve, args.grid)
    _emit(ser.convexity_report_to_obj(report), args.output, args.format)
    return EXIT_OK if report.ok else EXIT_HYPOTHESIS


def _cmd_random_instance(args) -> int:
    from .totalpos import random_tp_instance

    params, blocks = random_tp_instance(args.seed, args.bound)
    obj = ser.blocks_to_obj(blocks)
    obj["params"] = ser.params_to_obj(params)
    obj["seed"] = args.seed
    obj["bound"] = args.bound
    _emit(obj, args.output)
    return EXIT_OK


_COMMANDS = {
    "check-tp": _cmd_check_tp,
    "factor": _cmd_factor,
    "solve": _cmd_solve,
    "verify-identity": _cmd_verify_identity,
    "curve-sample": _cmd_curve_sample,
    "schubert-count": _cmd_schubert,
    "convexity-check": _cmd_convexity,
    "random-instance": _cmd_random_instance,
}


#: Exit code of each library error, the first matching class wins.
_EXIT_CODES = (
    (InputError, EXIT_INPUT),
    (HypothesisViolation, EXIT_HYPOTHESIS),
    (SearchFailure, EXIT_HYPOTHESIS),
    (DegenerateConfiguration, EXIT_DEGENERATE),
    (SingularMatrixError, EXIT_DEGENERATE),
    (CertificateFailure, EXIT_CERTIFICATE),
)


def _code_of(exc: FourLinesError) -> int:
    return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), EXIT_INPUT)


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except FourLinesError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _code_of(exc)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
else:
    # perfbench/tracer.py wraps functions of these modules and finds them in
    # sys.modules after ``import fourlines.cli``, and perfbench's tests read
    # ``fourlines.cli.check_tp_config``.  Removable once perfbench imports
    # the modules it wraps itself.
    from . import curves, identity, transversal  # noqa: F401
    from .totalpos import check_tp_config  # noqa: F401
