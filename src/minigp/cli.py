"""Command-line front end.

Subcommands: `exec` runs the reference machine, `run` the compiled
simulator, `verify` checks them against each other in lockstep, `gen`
prints the generated program and rule library, and `space` tabulates run
metrics over several inputs.  Exit status is 0 on success, 1 on
divergence or a `RunError` (a failed or overrun run), 2 on an
`InputError`, any other `ValueError`, or an I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import graphs
from .compiler import LISTING, gen_sim
from .errors import RunError
from .harness import (Trace, lockstep_verify, metrics_lines, metrics_table,
                      run_sim)
from .rules import rules_to_text
from .turing import (TMConfiguration, TuringMachine, check_input, parse_tm,
                     tm_run)

REPAIR_NOTE = ("# The restart check sits inside the outer loop so a flagged"
               " pass retries\n# the whole simulation at the next capacity;"
               " an unflagged pass ends the run.")


def _load(path: str) -> TuringMachine:
    return parse_tm(Path(path).read_text())


def _config_line(s: TMConfiguration) -> str:
    return (f"state={s.state} input_head={s.input_head} "
            f"work='{s.work}' work_head={s.work_head}")


def _tracer(enabled: bool) -> Optional[Trace]:
    if not enabled:
        return None
    return lambda i, s: print(f"step {i}: {_config_line(s)}")


def _cmd_exec(args: argparse.Namespace) -> int:
    m = _load(args.tm_file)
    final, steps, squares = tm_run(m, args.input, args.max_steps)
    print(_config_line(final))
    print(f"steps={steps}")
    print(f"squares={squares}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    m = _load(args.tm_file)
    metrics, final, g = run_sim(m, args.input, args.max_steps,
                                mode=args.mode, trace=_tracer(args.trace),
                                max_rule_calls=args.max_rule_calls)
    print(_config_line(final))
    for line in metrics_lines(metrics):
        print(line)
    if args.dump_graph:
        Path(args.dump_graph).write_text(graphs.to_text(g))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    m = _load(args.tm_file)
    report = lockstep_verify(m, args.input, args.max_steps,
                             mode=args.mode, trace=_tracer(args.trace),
                             max_rule_calls=args.max_rule_calls)
    print(f"steps_checked={report.steps_checked}")
    print(f"restarts={report.restarts}")
    print(f"null_failure_ok={report.null_failure_ok}")
    print(f"unique_match_ok={report.unique_match_ok}")
    for entry in report.errors:
        print(f"error: {entry}")
    if report.first_divergence is not None:
        step, got, expected = report.first_divergence
        print(f"divergence at step {step}")
        print(f"  decoded:  {_config_line(got)}")
        print(f"  machine:  {_config_line(expected)}")
        return 1
    if not report.ok:
        print("verification failed")
        return 1
    print("no divergence")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    sim = gen_sim(_load(args.tm_file))
    print(LISTING.rstrip("\n"))
    print()
    print(REPAIR_NOTE)
    print()
    print(rules_to_text([r for rules in sim.library.values() for r in rules])
          .rstrip("\n"))
    return 0


def _cmd_space(args: argparse.Namespace) -> int:
    m = _load(args.tm_file)
    inputs = args.inputs.split(",")
    for input in inputs:
        check_input(input)
    rows = [(input, run_sim(m, input, args.max_steps, mode=args.mode)[0])
            for input in inputs]
    print(metrics_table(rows), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minigp",
        description="Simulate Turing machines by rooted graph rewriting.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    flags = {
        "--input": dict(required=True, help="input string over 0/1"),
        "--max-steps": dict(type=int, default=10_000,
                            help="machine step budget (default 10000)"),
        "--mode": dict(choices=("semantic", "efficient"), default="efficient",
                       help="interpreter mode (default efficient)"),
        "--trace": dict(action="store_true",
                        help="stream decoded configurations per step"),
        "--max-rule-calls": dict(type=int, default=None,
                                 help="abort after this many rule calls"),
    }
    run_flags = tuple(flags)

    def common(p: argparse.ArgumentParser, *names: str) -> None:
        p.add_argument("tm_file", help="machine description file")
        for name in names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("exec", help="run the reference machine")
    common(p, "--input", "--max-steps")
    p.set_defaults(func=_cmd_exec)

    p = sub.add_parser("run", help="run the compiled simulator")
    common(p, *run_flags)
    p.add_argument("--dump-graph", metavar="PATH",
                   help="write the final graph in the text format")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="check simulator against machine")
    common(p, *run_flags)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="print the generated program and rules")
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("space", help="tabulate run metrics over inputs")
    common(p, "--max-steps", "--mode")
    p.add_argument("--inputs", required=True,
                   help="comma-separated input strings")
    p.set_defaults(func=_cmd_space)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (OSError, ValueError) as e:  # InputError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
