"""Command-line front end.

A command exits 0 on success, 3 when its hypothesis check fails, and
otherwise with the ``exit_code`` of the library error that ended it (see
``fourlines.errors``); an unreadable or unwritable file exits 2.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import serialize as ser
from .errors import FourLinesError, HypothesisViolation, InputError

# Each command imports the library functions it runs, so a process loads
# only the modules of the command it was started for.
if TYPE_CHECKING:
    from .curves import CurveSpec


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (parsing keeps no state in it)."""
    parser = argparse.ArgumentParser(
        prog="fourlines",
        description="Exact solver for the two transversals of four totally positive lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output")
    out_fmt = argparse.ArgumentParser(add_help=False, parents=[output])
    out_fmt.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("check-tp", parents=[out_fmt], help="check total positivity of a configuration")
    p.add_argument("--input", required=True)

    p = sub.add_parser("factor", parents=[out_fmt],
                       help="recover the 16 factorization parameters of a TP matrix")
    p.add_argument("--input", required=True)

    p = sub.add_parser("solve", parents=[out_fmt], help="solve for the two transversal lines")
    p.add_argument("--input")
    p.add_argument("--batch", help="directory of instance files to solve")

    p = sub.add_parser("verify-identity", parents=[out_fmt], help="certify the discriminant decomposition")
    p.add_argument("--spots", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("curve-sample", parents=[out_fmt], help="epsilon-sampling certificate on a curve")
    p.add_argument("--ts", required=True, help="comma-separated rationals, e.g. 1/10,3/10,5/10,7/10")
    p.add_argument("--epsilon", default="auto")
    p.add_argument("--curve", help="curve spec JSON file (default: rational normal curve)")

    p = sub.add_parser("schubert-count", help="count solutions of the general Schubert problem")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("convexity-check", parents=[out_fmt], help="sampled necessary convexity conditions")
    p.add_argument("--curve")
    p.add_argument("--grid", type=int, default=12)

    p = sub.add_parser("random-instance", parents=[output],
                       help="generate a random totally positive instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bound", type=int, default=10)
    return parser


def _read_json(path: str):
    """The JSON value in the file at ``path``, read once as bytes and
    decoded as UTF-8 (RFC 8259, section 8.1).  A file that cannot be read
    or is not UTF-8 is an ``InputError``."""
    try:
        with open(path, "rb") as file:
            text = file.read().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return ser.loads(text)


def _emit(obj, output, fmt) -> None:
    text = ser.dumps(obj) if fmt == "json" else _render_text(obj)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _render_text(obj, indent=0) -> str:
    """One ``key: value`` or ``- value`` line per scalar, and a ``key:`` or
    ``-`` line above each dict or list, which is nested below it.  A string
    is written bare, any other scalar as JSON spells it."""
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [(f"{key}:", val) for key, val in obj.items()]
    else:
        items = [("-", val) for val in obj]
    lines = []
    for head, val in items:
        if isinstance(val, (dict, list)):
            lines.append(f"{pad}{head}")
            if val:
                lines.append(_render_text(val, indent + 1))
        else:
            lines.append(f"{pad}{head} {val if isinstance(val, str) else ser._scalar(val)}")
    return "\n".join(lines) + ("\n" if indent == 0 else "")


def _load_curve(path) -> CurveSpec:
    from .curves import CurveSpec

    if not path:
        return CurveSpec.moment()
    return ser.curve_spec_from_obj(_read_json(path))


def _verdict(ok: bool) -> int:
    return 0 if ok else HypothesisViolation.exit_code


# Each command returns the object to write (None when it wrote its own
# files) and its exit code.

def _cmd_check_tp(args):
    from .totalpos import check_tp_config

    blocks = ser.blocks_from_obj(_read_json(args.input))
    report = check_tp_config(blocks)
    return ser.tp_report_to_obj(report), _verdict(report.ok)


def _cmd_factor(args):
    from .totalpos import lw_factor

    x = ser.mat_from_obj(_read_json(args.input))
    params = lw_factor(x)
    return ser.params_to_obj(params), 0


def _cmd_solve(args):
    from .transversal import solve_transversals

    if args.batch:
        if args.input:
            raise InputError("solve takes --input or --batch, not both")
        if args.format != "json":
            raise InputError("solve --batch writes JSON files: --format text needs --input")
        indir = Path(args.batch)
        if not indir.is_dir():
            raise InputError(f"--batch {args.batch}: not a directory")
        outdir = Path(args.output) if args.output else indir
        outdir.mkdir(parents=True, exist_ok=True)
        worst = 0
        for path in sorted(indir.glob("*.json")):
            if path.name.endswith(".solution.json"):
                continue
            out = outdir / (path.stem + ".solution.json")
            errors = []
            try:
                sol = solve_transversals(ser.blocks_from_obj(_read_json(str(path))))
                out.write_text(ser.dumps(ser.solution_to_obj(sol)))
            except (FourLinesError, OSError) as exc:
                errors.append(exc)
                try:
                    if out.is_file():  # an earlier run's solution, stale now
                        out.unlink()
                except OSError as err:
                    errors.append(err)
            for exc in errors:
                sys.stderr.write(f"{path.name}: {exc}\n")
                worst = max(worst, _exit_code(exc))
        return None, worst
    if not args.input:
        raise InputError("solve needs --input or --batch")
    sol = solve_transversals(ser.blocks_from_obj(_read_json(args.input)))
    return ser.solution_to_obj(sol), 0


def _cmd_verify_identity(args):
    from .identity import verify_identity

    cert = verify_identity(spot_count=args.spots, seed=args.seed)
    return cert.to_obj(), 0


def _cmd_curve_sample(args):
    from .curves import MAX_CURVE_LITERAL, _certifying_sample, lemma_sample

    curve = _load_curve(args.curve)
    ts = tuple(ser.rat_from_str(part, MAX_CURVE_LITERAL) for part in args.ts.split(","))
    if args.epsilon == "auto":
        report = _certifying_sample(curve, ts)
    else:
        report = lemma_sample(curve, ts, ser.rat_from_str(args.epsilon, MAX_CURVE_LITERAL))
    return ser.sample_report_to_obj(report), _verdict(report.ok)


def _cmd_schubert(args):
    from .curves import schubert_count

    return schubert_count(args.k, args.n), 0


def _cmd_convexity(args):
    from .curves import convexity_sample_check

    curve = _load_curve(args.curve)
    report = convexity_sample_check(curve, args.grid)
    return ser.convexity_report_to_obj(report), _verdict(report.ok)


def _cmd_random_instance(args):
    from .totalpos import random_tp_instance

    params, blocks = random_tp_instance(args.seed, args.bound)
    obj = ser.blocks_to_obj(blocks)
    obj["params"] = ser.params_to_obj(params)
    obj["seed"] = args.seed
    obj["bound"] = args.bound
    return obj, 0


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


def _exit_code(exc) -> int:
    """A library error's own code; an OSError is an unreadable or unwritable file."""
    return exc.exit_code if isinstance(exc, FourLinesError) else InputError.exit_code


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else InputError.exit_code
    try:
        obj, code = _COMMANDS[args.command](args)
        if obj is not None:
            # schubert-count has neither option, random-instance no --format
            _emit(obj, getattr(args, "output", None), getattr(args, "format", "json"))
        return code
    except (FourLinesError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _exit_code(exc)


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
