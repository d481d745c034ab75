"""Count the bytecodes evmigrate executes, per layer, for one benchmark operation.

Run from the repository root:

    python3 tools/count_bytecodes.py
    python3 tools/count_bytecodes.py --seed 1 --sync 4 --functions 15

Three operations are counted, each after untraced warm-up: one tiny cycle
(the ``evmigrate bench`` fixture through ybirth, as perfbench's
``tiny-cycles`` runs it: session, decode, forward, encode, mutate,
backward, encode), one sync of perfbench's ``bulk-churn`` workload
(20,000 objects through ybirth; the ``--sync``-th backward of a seeded
mutation stream, each an apply, a backward and an encode of m1), and one
forward of perfbench's ``bulk-1edit`` workload at 2,000 objects (dog-no-age;
decode, forward and encode of m2, as perfbench times a forward).

A count is the number of ``opcode`` trace events (``sys.settrace`` with
``frame.f_trace_opcodes``), so it does not depend on the machine's speed:
two runs of one tree print the same output.  Each bytecode is charged to
the innermost layer on the call stack (the layers are the functions
perfbench's ``--trace 1`` times), or to ``bench`` outside every layer, and
to the function executing it.  Standard library only; evmigrate is
imported from ``src/`` of this checkout and the workloads from
``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

import evmigrate  # noqa: E402
from evmigrate import cli, codec, commands, sync  # noqa: E402
from evmigrate.editor import Editor  # noqa: E402
from evmigrate.metamodel import InstanceModel  # noqa: E402

#: the harness's own code, outside every layer
BENCH = "bench"

LAYERS = {
    "codec.decode_model": codec.decode_model,
    "codec.encode_model": codec.encode_model,
    "codec.encode_log": codec.encode_log,
    "codec.decode_log": codec.decode_log,
    "metamodel.validate": InstanceModel.validate,
    "editor.adopt_model": Editor.adopt_model,
    "editor.parse_model": Editor.parse_model,
    "editor.merge_all": Editor.merge_all,
    "commands.run": commands.run,
    "sync.session_create": evmigrate.MigrationSession.create.__func__,
    "sync.apply_mutations": sync.apply_mutations,
    "sync.migrate_forward": sync.migrate_forward,
    "sync.migrate_backward": sync.migrate_backward,
}
_LAYER_OF_CODE = {fn.__code__: name for name, fn in LAYERS.items()}

#: untraced tiny cycles before the counted one
TINY_WARMUP = 20


class Count:
    """Bytecodes executed per layer and per function."""

    def __init__(self):
        self.layers: Counter[str] = Counter()
        self.functions: Counter[str] = Counter()

    @property
    def total(self):
        return sum(self.layers.values())

    def run(self, body):
        """Run ``body()`` traced and return its result."""
        layers, functions = self.layers, self.functions
        layer_of = {}  # live frame -> the layer its bytecodes are charged to

        def on_call(frame, event, arg):
            code = frame.f_code
            layer = _LAYER_OF_CODE.get(code) or layer_of.get(frame.f_back, BENCH)
            function = f"{frame.f_globals.get('__name__')}.{code.co_qualname}"
            layer_of[frame] = layer
            frame.f_trace_opcodes = True

            def on_event(frame, event, arg):
                if event == "opcode":
                    layers[layer] += 1
                    functions[function] += 1
                elif event == "return":
                    layer_of.pop(frame, None)
                return on_event

            return on_event

        # no collection during the count: a collector callback installed by
        # another library (hypothesis installs one) would be counted too
        collecting = gc.isenabled()
        gc.disable()
        sys.settrace(on_call)
        try:
            return body()
        finally:
            sys.settrace(None)
            if collecting:
                gc.enable()


def tiny_cycle():
    """One tiny cycle as a body to run and the check of its output."""
    work = workloads.TinyWorkload(cli.BENCH_INPUT, cli.BENCH_MUTATION)
    scenario = evmigrate.SCENARIOS["ybirth"]

    def cycle():
        session = evmigrate.MigrationSession.create(
            scenario.m1_schema, scenario.m2_schema, workloads.REFERENCE_YEAR
        )
        model = evmigrate.decode_model(work.input_text, scenario.m1_schema)
        m2_text = evmigrate.encode_model(evmigrate.migrate_forward(session, model))
        evmigrate.apply_mutations(session.m2.model, work.mutation)
        m1_text = evmigrate.encode_model(evmigrate.migrate_backward(session))
        return m2_text, m1_text

    return cycle, lambda texts: work.check(*texts)


def count_tiny() -> Count:
    cycle, check = tiny_cycle()
    for _ in range(TINY_WARMUP):
        check(cycle())
    count = Count()
    check(count.run(cycle))
    return count


def count_bulk_churn(seed, sync_number, size=20_000) -> Count:
    """Count the ``sync_number``-th sync after one forward, as perfbench's
    ``bulk-churn`` runs them; every output is checked, untraced."""
    work = workloads.BulkWorkload(seed, "ybirth", size, churn=True)
    scenario = evmigrate.SCENARIOS["ybirth"]
    session = evmigrate.MigrationSession.create(
        scenario.m1_schema, scenario.m2_schema, workloads.REFERENCE_YEAR
    )
    model = evmigrate.decode_model(work.input_text, scenario.m1_schema)
    work.check_forward(evmigrate.encode_model(evmigrate.migrate_forward(session, model)))
    count = Count()
    for number in range(1, sync_number + 1):
        script = work.next_script()

        def backward():
            evmigrate.apply_mutations(session.m2.model, script)
            return evmigrate.encode_model(evmigrate.migrate_backward(session))

        work.check_backward(count.run(backward) if number == sync_number else backward())
    return count


def count_bulk_forward(seed, size=2_000) -> Count:
    """Count one forward of perfbench's ``bulk-1edit`` workload in a fresh
    session, after one untraced forward; both outputs are checked."""
    work = workloads.BulkWorkload(seed, "dog-no-age", size, churn=False)
    scenario = evmigrate.SCENARIOS["dog-no-age"]

    def forward(session):
        model = evmigrate.decode_model(work.input_text, scenario.m1_schema)
        return evmigrate.encode_model(evmigrate.migrate_forward(session, model))

    def session():
        return evmigrate.MigrationSession.create(
            scenario.m1_schema, scenario.m2_schema, workloads.REFERENCE_YEAR
        )

    work.check_forward(forward(session()))
    count, counted = Count(), session()
    work.check_forward(count.run(lambda: forward(counted)))
    return count


def report(title, count: Count, functions) -> list[str]:
    lines = [title, f"  {'layer':<28} {'bytecodes':>10}"]
    for name in (*LAYERS, BENCH):
        if count.layers[name]:
            lines.append(f"  {name:<28} {count.layers[name]:>10}")
    lines.append(f"  {'total':<28} {count.total:>10}")
    if functions:
        lines.append(f"  {'function (own bytecodes)':<54} {'bytecodes':>10}")
        # ties broken by name, so the listing is the same on every run
        top = sorted(count.functions.items(), key=lambda item: (-item[1], item[0]))
        for name, n in top[:functions]:
            lines.append(f"  {name:<54} {n:>10}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the bulk workloads (default 1)")
    parser.add_argument("--sync", type=int, default=4,
                        help="which bulk-churn sync to count (default 4)")
    parser.add_argument("--functions", type=int, default=10,
                        help="how many of the busiest functions to list (default 10)")
    args = parser.parse_args(argv)
    if args.sync < 1:
        parser.error("--sync must be >= 1")
    lines = report("tiny-cycles: one cycle", count_tiny(), args.functions)
    lines += report(f"bulk-churn: sync {args.sync}, seed {args.seed}",
                    count_bulk_churn(args.seed, args.sync), args.functions)
    lines += report(f"bulk-1edit: one forward at 2,000 objects, seed {args.seed}",
                    count_bulk_forward(args.seed), args.functions)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
