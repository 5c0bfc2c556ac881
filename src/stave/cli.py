"""Command-line front end.

Subcommands:
    run          execute a scenario file, write its outputs, print the summary
    validate     check a scenario file and report every problem at once
    diff         offline pre/post comparison of two capture logs
    occupancy    offline per-channel packet counts of a radio capture
    replay-plan  offline: turn a capture into an injection schedule file

Exit status: 0 success, 1 I/O failure, 2 validation or domain error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .attack import (TIMING_MODES, TIMING_PRESERVE, FrameTally, MessageMatch, Mutation, channel_occupancy,
                     diff_captures, plan_replay)
from .capture import CaptureFile, CaptureLog
from .errors import ConfigurationError, ScenarioValidationError, StaveError, int_text, shown
from .runner import run_scenario, write_json
from .scenario import load_scenario


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept: parse_args
    leaves it unchanged, so every main call in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="stave",
        description="Simulated agricultural-vehicle CAN testbed and attack toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its outputs")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--seed", default=None,
                       help="override the scenario seed (flag wins over file)")
    p_run.add_argument("--out", default=".", metavar="DIR",
                       help="directory for declared outputs (default: current directory)")

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("scenario", help="scenario JSON file")

    p_diff = sub.add_parser("diff", help="compare two capture logs")
    p_diff.add_argument("pre", help="baseline capture log")
    p_diff.add_argument("post", help="active capture log")
    p_diff.add_argument("--report", required=True, metavar="OUT.json",
                        help="where to write the diff report")

    p_occ = sub.add_parser("occupancy", help="per-channel packet counts of a radio log")
    p_occ.add_argument("capture", help="radio capture log")
    p_occ.add_argument("--report", default=None, metavar="OUT.json",
                       help="also write the report to a file")

    p_plan = sub.add_parser("replay-plan", help="build an injection schedule from a capture")
    p_plan.add_argument("capture", help="capture log to replay from")
    group = p_plan.add_mutually_exclusive_group(required=True)
    group.add_argument("--match-pgn", default=None, metavar="HEX",
                       help="select frames by parameter group number")
    group.add_argument("--match-id", default=None, metavar="HEX",
                       help="select frames by exact 29-bit identifier")
    p_plan.add_argument("--mutate", default=None, metavar="SPEC",
                        help='mutation such as "byte0=reflect(250)"')
    p_plan.add_argument("--timing", choices=TIMING_MODES, default=TIMING_PRESERVE)
    p_plan.add_argument("--out", default=None, metavar="OUT.json",
                        help="write the schedule here instead of stdout")
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        try:
            scenario = scenario.with_seed(_flag("--seed", int_text, args.seed))
        except ScenarioValidationError as exc:  # located at the document's seed, which the flag replaces
            raise ScenarioValidationError([f"--{error}" for error in exc.errors]) from None
    bed = run_scenario(scenario, out_dir=args.out)
    write_json(None, bed.summary)
    for label, path in sorted(bed.written):
        print(f"wrote {label}: {path}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    load_scenario(args.scenario)
    print(f"{args.scenario}: ok")
    return 0


def _cmd_diff(args) -> int:
    write_json(args.report, diff_captures(FrameTally(CaptureFile(args.pre)), FrameTally(CaptureFile(args.post))))
    print(f"wrote report: {args.report}", file=sys.stderr)
    return 0


def _cmd_occupancy(args) -> int:
    write_json(args.report, channel_occupancy(CaptureFile(args.capture), args.capture))
    return 0


def _flag(flag: str, build, text: str):
    """build(text), where a number in text is read by errors.int_text; any error names the flag."""
    try:
        return build(text)
    except ValueError:  # from int_text
        raise ConfigurationError(f"{flag}: expected an integer, got {shown(text)}") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"{flag}: {exc}") from None


def _cmd_replay_plan(args) -> int:
    log = CaptureLog.load(args.capture)
    if args.match_pgn is not None:
        match = _flag("--match-pgn", lambda text: MessageMatch(pgn=int_text(text)), args.match_pgn)
    else:
        match = _flag("--match-id", lambda text: MessageMatch(can_id=int_text(text)), args.match_id)
    mutation = None if args.mutate is None else _flag("--mutate", Mutation.parse, args.mutate)
    schedule = plan_replay(log, match, mutation, args.timing)
    del log  # the schedule is written an entry at a time, without the log
    write_json(args.out, schedule.json_doc())
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "diff": _cmd_diff,
    "occupancy": _cmd_occupancy,
    "replay-plan": _cmd_replay_plan,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioValidationError as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return 2
    except StaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # a safety net: the commands report their own bad values as StaveErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
