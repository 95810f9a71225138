"""Command-line front-end.

    fliess run <config.json> [--csv PATH]       one experiment, report row
    fliess table {lc,gc}                        regression table, pass/fail
    fliess trajectory <config.json> [--resolution N] [--out PATH]
    fliess bounds <config.json>                 bound columns only

Exit codes: 0 success, 1 comparison failure, 2 config or domain error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .algebra import CapExceeded, DomainError
from .bounds import Divergent
from .harness import (
    REPORT_COLUMNS,
    compute_bounds,
    emit_trajectory,
    format_float,
    load_config,
    reproduce_table,
    run_experiment,
    write_csv,
)
from .realization import NonFinite, PolicyViolation, SingularTransition
from .signals import QuadratureFailure

_CONFIG_ERRORS = (
    DomainError,
    CapExceeded,
    Divergent,
    QuadratureFailure,
    SingularTransition,
    PolicyViolation,
    NonFinite,
    OSError,
)


def _write(rows, path=None) -> None:
    """Write CSV rows to the file at ``path``, or to stdout."""
    with open(path, "w", encoding="utf-8", newline="") if path else nullcontext(sys.stdout) as fh:
        write_csv(rows, fh)


def _cmd_run(args) -> int:
    report = run_experiment(load_config(args.config))
    _write([REPORT_COLUMNS, report.row()], args.csv)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _cmd_table(args) -> int:
    result = reproduce_table(args.which)
    print("\n".join(result.lines()))
    return 0 if result.passed else 1


def _cmd_trajectory(args) -> int:
    _write(emit_trajectory(load_config(args.config), args.resolution), args.out)
    return 0


def _cmd_bounds(args) -> int:
    b = compute_bounds(load_config(args.config))
    _write([["s", "s_hat", "e_hat", "e_tail", "mode"],
            [*map(format_float, (b.s, b.s_hat, b.e_hat, b.e_tail)), b.mode]])
    for w in b.regime_warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fliess",
        description="Evaluate series functionals, their discrete-time "
                    "approximations, and the associated error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--csv", help="write the report row to this file")
    p_run.set_defaults(func=_cmd_run)

    p_table = sub.add_parser("table", help="reproduce a regression table")
    p_table.add_argument("which", choices=["lc", "gc"])
    p_table.set_defaults(func=_cmd_table)

    p_traj = sub.add_parser("trajectory", help="emit plot data as CSV")
    p_traj.add_argument("config", help="path to a JSON experiment config")
    p_traj.add_argument("--resolution", type=int, default=200,
                        help="number of continuous-curve samples (default 200)")
    p_traj.add_argument("--out", help="write CSV here instead of stdout")
    p_traj.set_defaults(func=_cmd_trajectory)

    p_bounds = sub.add_parser("bounds", help="print bound columns for a config")
    p_bounds.add_argument("config", help="path to a JSON experiment config")
    p_bounds.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
