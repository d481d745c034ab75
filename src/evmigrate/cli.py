"""Command-line front end.

Subcommands: migrate (forward only), roundtrip (forward + mutations +
backward), check (randomized law oracles), bench (timed migration cycles
on a pinned fixture).  Exit codes: 0 success, 1 domain/validation
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .codec import decode_model, encode_log, encode_model
from .commands import DEFAULT_REFERENCE_YEAR, check_reference_year
from .errors import MigrationError
from .metamodel import copy_model, load_schema
from .sync import (
    SCENARIOS,
    MigrationSession,
    apply_mutations,
    migrate_backward,
    migrate_forward,
)

YEAR_ENV_VAR = "EVMIGRATE_YEAR"

#: bench fixture: 2 persons, 2 dogs, one mutation per cycle
BENCH_INPUT = """\
obj p1 Person
  name Alice
  age 23
obj p2 Person
  name Bob
  age 31
obj d1 Dog
  name Rex
  age 4
  owner p1
obj d2 Dog
  name Fifi
  age 2
  owner p2
"""

BENCH_MUTATION = "set d1 name Odie\n"


@dataclass
class BenchReport:
    scenario: str
    iterations: int
    total_seconds: float

    @property
    def per_iteration_micros(self) -> float:
        return self.total_seconds * 1e6 / self.iterations if self.iterations else 0.0

    def machine_line(self) -> str:
        return (
            f"bench scenario={self.scenario} iterations={self.iterations} "
            f"total_s={self.total_seconds:.6f} per_iter_us={self.per_iteration_micros:.2f}"
        )


def resolve_year(arg_year) -> int:
    if arg_year is not None:
        return arg_year
    env = os.environ.get(YEAR_ENV_VAR)
    if env is None:
        return DEFAULT_REFERENCE_YEAR
    try:
        return check_reference_year(int(env, 10))
    except ValueError:
        raise MigrationError(f"{YEAR_ENV_VAR} must be a positive integer, got {env!r}") from None


def _parse_file(path, parse, *args):
    """``parse(text, *args)`` on the text of ``path``; errors name the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise MigrationError(f"cannot read {path}: {e}") from None
    try:
        return parse(text, *args)
    except MigrationError as e:
        raise MigrationError(f"{path}: {e}") from None


def _write_file(path, text):
    """Write ``text`` to ``path``; an error names the file."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise MigrationError(f"cannot write {path}: {e}") from None


def _make_session(args) -> MigrationSession:
    m1 = _parse_file(args.m1_schema, load_schema, Path(args.m1_schema).stem)
    m2 = _parse_file(args.m2_schema, load_schema, Path(args.m2_schema).stem)
    return MigrationSession.create(m1, m2, resolve_year(args.year))


def _load_input(args, session):
    return _parse_file(args.input, decode_model, session.m1.schema)


def cmd_migrate(args) -> int:
    session = _make_session(args)
    m2_model = migrate_forward(session, _load_input(args, session))
    _write_file(args.out, encode_model(m2_model))
    if args.log:
        _write_file(args.log, encode_log(session.m2.store, session.reference_year))
    return 0


def cmd_roundtrip(args) -> int:
    session = _make_session(args)
    migrate_forward(session, _load_input(args, session))
    _parse_file(args.mutations, lambda script: apply_mutations(session.m2.model, script))
    m1_model = migrate_backward(session)
    _write_file(args.out, encode_model(m1_model))
    return 0


def cmd_check(args) -> int:
    from .checks import run_all  # only this subcommand loads the oracles

    reports = run_all(args.seed, args.cases, max_commands=args.max_commands)
    total = 0
    failures = 0
    for report in reports:
        line = f"check {report.law}: cases={report.cases} failures={report.failures}"
        if report.first_failure:
            line += f" first={report.first_failure}"
        print(line)
        total += report.cases
        failures += report.failures
    verdict = "PASS" if failures == 0 else "FAIL"
    print(f"check result: {verdict} ({total} cases, {failures} failures)")
    return 0 if failures == 0 else 1


def run_bench(scenario_name, iterations, year=DEFAULT_REFERENCE_YEAR) -> BenchReport:
    """Timed forward+mutate+backward cycles, fresh editors per cycle."""
    scenario = SCENARIOS[scenario_name]
    template = decode_model(BENCH_INPUT, scenario.m1_schema)
    start = time.perf_counter()
    for _ in range(iterations):
        session = MigrationSession.create(
            scenario.m1_schema, scenario.m2_schema, year
        )
        migrate_forward(session, copy_model(template))
        apply_mutations(session.m2.model, BENCH_MUTATION)
        migrate_backward(session)
    total = time.perf_counter() - start
    return BenchReport(scenario_name, iterations, total)


def cmd_bench(args) -> int:
    report = run_bench(args.scenario, args.iterations, resolve_year(args.year))
    print(report.machine_line())
    print(
        f"{report.iterations} iterations of scenario '{report.scenario}' in "
        f"{report.total_seconds:.3f} s ({report.per_iteration_micros:.1f} us/iteration)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evmigrate",
        description="Event-sourced bidirectional model migration between two schemas.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    migrate = sub.add_parser("migrate", help="migrate an instance file to the target schema")
    migrate.add_argument("--m1-schema", required=True, metavar="F")
    migrate.add_argument("--m2-schema", required=True, metavar="F")
    migrate.add_argument("--input", required=True, metavar="F")
    migrate.add_argument("--out", required=True, metavar="F")
    migrate.add_argument("--log", metavar="F", help="also write the command log")
    migrate.add_argument("--year", type=int, metavar="N")
    migrate.set_defaults(handler=cmd_migrate)

    roundtrip = sub.add_parser(
        "roundtrip", help="migrate forward, apply mutations, migrate back"
    )
    roundtrip.add_argument("--m1-schema", required=True, metavar="F")
    roundtrip.add_argument("--m2-schema", required=True, metavar="F")
    roundtrip.add_argument("--input", required=True, metavar="F")
    roundtrip.add_argument("--mutations", required=True, metavar="F")
    roundtrip.add_argument("--out", required=True, metavar="F")
    roundtrip.add_argument("--year", type=int, metavar="N")
    roundtrip.set_defaults(handler=cmd_roundtrip)

    check = sub.add_parser("check", help="run the randomized law oracles")
    check.add_argument("--cases", type=int, required=True, metavar="N")
    check.add_argument("--seed", type=int, required=True, metavar="S")
    check.add_argument("--max-commands", type=int, default=5, metavar="K")
    check.set_defaults(handler=cmd_check)

    bench = sub.add_parser("bench", help="time full migration cycles")
    bench.add_argument("--iterations", type=int, required=True, metavar="N")
    bench.add_argument("--scenario", choices=sorted(SCENARIOS), default="ybirth")
    bench.add_argument("--year", type=int, metavar="N")
    bench.set_defaults(handler=cmd_bench)
    for subparser in sub.choices.values():  # a bad flag is reported with its own usage
        subparser.set_defaults(parser=subparser)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, least in (("cases", 0), ("iterations", 1), ("max_commands", 1), ("year", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            args.parser.error(f"--{flag.replace('_', '-')} must be >= {least}")
    try:
        return args.handler(args)
    except MigrationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early ("Note on SIGPIPE" in the signal
        # module's docs): send what is left to devnull, so the flush at
        # exit fails no more, and exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
