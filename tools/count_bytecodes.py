"""Count the bytecodes evmigrate executes, per layer, for one benchmark operation.

Run from the repository root:

    python3 tools/count_bytecodes.py
    python3 tools/count_bytecodes.py --seed 1 --sync 4 --functions 15
    python3 tools/count_bytecodes.py --sizes 1000,10000,100000

Five operations are counted, each after untraced warm-up: one cycle of
``evmigrate bench --scenario ybirth`` (acceptance criterion 8's cycle:
session, forward of a copy of the decoded fixture, mutate, backward; the
count of ``cli.run_bench("ybirth", 2)`` less that of ``run_bench("ybirth",
1)``), one tiny cycle (the same fixture through ybirth, as perfbench's
``tiny-cycles`` runs it: session, decode, forward, encode, mutate,
backward, encode), one sync of perfbench's ``bulk-churn`` workload
(20,000 objects through ybirth; the ``--sync``-th backward of a seeded
mutation stream, each an apply, a backward and an encode of m1), one
forward of perfbench's ``bulk-1edit`` workload at 2,000 objects (dog-no-age;
decode, forward and encode of m2, as perfbench times a forward), and one
sync of ``bulk-1edit`` at 20,000 objects (the 10th one-rename backward
after a forward, on the same seed; after the process's first backward,
which also generates m1's runner, every such sync counts the same).
With ``--sizes``, the forward, the 10th ``bulk-1edit`` sync and the
``--sync``-th ``bulk-churn`` sync are counted at each size instead, each
layer also per input object (per edited object for the churn sync), and
beside each operation's total the least wall time of five untraced runs,
each in a session of its own (bytecodes weigh every bytecode alike, so a
change in what one costs, such as a C call that a plain store replaces,
shows only in time).

A count is the number of ``opcode`` trace events (``sys.settrace`` with
``frame.f_trace_opcodes``), so it does not depend on the machine's speed:
two runs of one tree print the same output.  For the three bulk operations
the report also gives what the session holds afterwards: the id strings it
holds twice (each id, ownerId and key of a store entry and each reference
target that is not the very string its object holds), and, in a separate
pass without the bytecode trace, the objects the cyclic collector tracks
and the bytes ``tracemalloc`` traces while the session is alive, less
those it still tracks and traces once the session is dropped, each after
``gc.collect()``, also per input object (rounded up).  Each bytecode is charged to
the innermost layer on the call stack (the layers are the functions
perfbench's ``--trace 1`` times), or to ``bench`` outside every layer, and
to the function executing it: a generated kernel is listed under its
file name, such as ``<evmigrate kernel m1.Dog>.build``, one per schema
label and class (the ``#n`` that tells apart kernels whose schemas share
a name is left out).  Standard library only; evmigrate is
imported from ``src/`` of this checkout and the workloads from
``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
import time
import tracemalloc
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

#: the number that tells apart kernels whose labels are alike
_SERIAL = re.compile(r" #[0-9]+>$")


def _module(frame) -> str:
    """A function's module, or for generated code (a per-schema kernel of
    ``codec`` or ``commands``) its file name, which names schema and class,
    less the number that depends on how many kernels were built before."""
    filename = frame.f_code.co_filename
    if filename.startswith("<evmigrate kernel"):
        return _SERIAL.sub(">", filename)
    return frame.f_globals.get("__name__")


#: untraced tiny cycles before the counted one
TINY_WARMUP = 20

#: untraced runs of an operation whose least wall time the sweep reports
TIMED_RUNS = 5


class Count:
    """Bytecodes executed per layer and per function."""

    def __init__(self):
        self.layers: Counter[str] = Counter()
        self.functions: Counter[str] = Counter()
        #: bytes the session retains after the operation, if measured
        self.retained: int | None = None
        #: objects in the operation's input, if its retained bytes are measured
        self.objects: int | None = None
        #: objects of the session the cyclic collector tracks, if measured
        self.tracked: int | None = None
        #: id strings the session holds twice, if measured
        self.twice: int | None = None
        #: the least wall time of ``TIMED_RUNS`` untraced runs (seconds), if measured
        self.wall: float | None = None

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
            function = f"{_module(frame)}.{code.co_qualname}"
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


class Clock:
    """Wall times of untraced runs: ``run`` is ``Count.run`` without the trace."""

    def __init__(self):
        self.times: list[float] = []

    def run(self, body):
        """Run ``body()``, keep its wall time and return its result."""
        start = time.perf_counter()
        result = body()
        self.times.append(time.perf_counter() - start)
        return result


def least_wall(scenario_name, churn, seed, size, number) -> float:
    """The least wall time of ``TIMED_RUNS`` untraced runs of a bulk
    workload's forward (``number`` 0) or its ``number``-th sync, each in a
    session of its own."""
    clock = Clock()
    for _ in range(TIMED_RUNS):
        work = workloads.BulkWorkload(seed, scenario_name, size, churn)
        synced_session(work, scenario_name, number, {number: clock})
    return min(clock.times)


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


def count_bench_cycle() -> Count:
    """One criterion-8 cycle: two bench cycles counted less one (each
    count of two cycles is at least that of one)."""
    cli.run_bench("ybirth", TINY_WARMUP)
    one, two = Count(), Count()
    one.run(lambda: cli.run_bench("ybirth", 1))
    two.run(lambda: cli.run_bench("ybirth", 2))
    two.layers, two.functions = two.layers - one.layers, two.functions - one.functions
    return two


def retained(build) -> tuple[int, int]:
    """The bytes ``build()``'s result holds and the objects of it the
    cyclic collector tracks: traced and tracked while it is alive, less
    those still traced and tracked once it is dropped, each after
    ``gc.collect()``."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        held, tracked = tracemalloc.get_traced_memory()[0], len(gc.get_objects())
        del kept
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0], tracked - len(gc.get_objects())
    finally:
        tracemalloc.stop()


def held_twice(session) -> int:
    """How many id strings ``session`` holds that are not the very string
    its editor registers the id under (a reference: its target's own id),
    counted once per holder: a store entry's key, id and ownerId, and each
    reference target."""
    twice = 0
    for editor in (session.m1, session.m2):
        own, objects = {obj_id: obj_id for obj_id, _ in editor.registered()}, editor.model.objects
        for key, (_, obj_id, _, _, owner_id) in editor.store._entries.items():
            twice += sum(held is not own[held] for held in (key, obj_id, owner_id) if held is not None)
        for obj in objects.values():
            for value in obj.references.values():
                twice += sum(target is not objects[target].id
                             for target in (value if type(value) is tuple else (value,)))
    return twice


def synced_session(work, scenario_name, sync_number, counts=None):
    """A session after one forward and ``sync_number`` syncs of ``work``
    through ``scenario_name``, as perfbench's bulk workloads run them, each
    sync whose number ``counts`` maps to a ``Count`` (or a ``Clock``) run
    through it, the forward too if it maps 0; every output is checked."""
    scenario = evmigrate.SCENARIOS[scenario_name]
    session = evmigrate.MigrationSession.create(
        scenario.m1_schema, scenario.m2_schema, workloads.REFERENCE_YEAR
    )

    def forward():
        model = evmigrate.decode_model(work.input_text, scenario.m1_schema)
        return evmigrate.encode_model(evmigrate.migrate_forward(session, model))

    count = counts and counts.get(0)
    work.check_forward(count.run(forward) if count else forward())
    for number in range(1, sync_number + 1):
        script = work.next_script()

        def backward():
            evmigrate.apply_mutations(session.m2.model, script)
            return evmigrate.encode_model(evmigrate.migrate_backward(session))

        count = counts and counts.get(number)
        work.check_backward(count.run(backward) if count else backward())
    return session


def count_bulk_sync(scenario_name, churn, seed, sync_number, size=20_000) -> Count:
    """Count the ``sync_number``-th sync after one forward of perfbench's
    ``bulk-churn`` (``churn``) or ``bulk-1edit`` workload, then measure
    what the session retains after it, in a second session of a second,
    equal workload (the first's mutation stream is spent)."""
    count = Count()
    work = workloads.BulkWorkload(seed, scenario_name, size, churn)
    counted = synced_session(work, scenario_name, sync_number, {sync_number: count})
    count.twice = held_twice(counted)
    work = workloads.BulkWorkload(seed, scenario_name, size, churn)
    count.retained, count.tracked = retained(lambda: synced_session(work, scenario_name, sync_number))
    count.objects = len(work.m1)
    return count


def count_bulk_churn(seed, sync_number, size=20_000) -> Count:
    """One sync of ``bulk-churn``: 20,000 objects through ybirth."""
    return count_bulk_sync("ybirth", True, seed, sync_number, size)


def count_bulk_1edit(seed, sync_number=10, size=20_000) -> Count:
    """One sync of ``bulk-1edit``: 20,000 objects through dog-no-age, one
    dog renamed per sync."""
    return count_bulk_sync("dog-no-age", False, seed, sync_number, size)


def count_1edit_syncs(seed, syncs, size) -> list[Count]:
    """Count syncs 2 to ``syncs`` of ``bulk-1edit`` at ``size`` objects,
    each on its own, in one session, after an untraced first sync."""
    counts = {number: Count() for number in range(2, syncs + 1)}
    synced_session(workloads.BulkWorkload(seed, "dog-no-age", size, False), "dog-no-age", syncs, counts)
    return list(counts.values())


def count_bulk_forward(seed, size=2_000) -> Count:
    """Count one forward of perfbench's ``bulk-1edit`` workload in a fresh
    session, after one untraced forward, then measure what a third such
    session retains; every output is checked."""
    work = workloads.BulkWorkload(seed, "dog-no-age", size, churn=False)
    scenario = evmigrate.SCENARIOS["dog-no-age"]

    def forward(session):
        model = evmigrate.decode_model(work.input_text, scenario.m1_schema)
        return evmigrate.encode_model(evmigrate.migrate_forward(session, model))

    def session():
        return evmigrate.MigrationSession.create(
            scenario.m1_schema, scenario.m2_schema, workloads.REFERENCE_YEAR
        )

    def forwarded():
        fresh = session()
        work.check_forward(forward(fresh))
        return fresh

    forwarded()
    count, counted = Count(), session()
    work.check_forward(count.run(lambda: forward(counted)))
    count.twice = held_twice(counted)
    count.retained, count.tracked = retained(forwarded)
    count.objects = len(work.m1)
    return count


def report(title, count: Count, functions, per=None) -> list[str]:
    """The lines of ``count``'s report; with ``per``, (what, how many),
    each layer's bytecodes also per one of them; with a measured wall
    time, the total's row also gives it, in milliseconds."""
    column = "" if per is None else f" {f'per {per[0]}':>20}"
    wall = "" if count.wall is None else f" {f'least wall ms of {TIMED_RUNS}':>20}"
    lines = [title, f"  {'layer':<28} {'bytecodes':>10}{column}{wall}"]
    rows = [(name, count.layers[name]) for name in (*LAYERS, BENCH) if count.layers[name]]
    for name, n in [*rows, ("total", count.total)]:
        lines.append(f"  {name:<28} {n:>10}" + ("" if per is None else f" {n / per[1]:>20.2f}")
                     + (f" {count.wall * 1000:>20.2f}" if wall and name == "total" else ""))
    if count.retained is not None:
        lines.append(f"  {'session holds id strings twice (count)':<28} {count.twice:>10}")
        lines.append(f"  {'session tracks (objects)':<28} {count.tracked:>10}")
        lines.append(f"  {'session retains (bytes)':<28} {count.retained:>10}")
        lines.append(f"  {'session retains per input object (bytes)':<28} {-(-count.retained // count.objects):>10}")
    if functions:
        lines.append(f"  {'function (own bytecodes)':<54} {'bytecodes':>10}")
        # ties broken by name, so the listing is the same on every run
        top = sorted(count.functions.items(), key=lambda item: (-item[1], item[0]))
        for name, n in top[:functions]:
            lines.append(f"  {name:<54} {n:>10}")
    return lines


def sweep(sizes, seed, sync_number, functions) -> list[str]:
    """The reports, at each size, of a ``bulk-1edit`` forward, its 10th
    sync and the ``sync_number``-th ``bulk-churn`` sync, each also timed."""
    lines = []
    for size in sizes:
        edited = int(size * workloads.CHURN_SHARE) + workloads.CHURN_NEW_DOGS
        for title, count, per, scenario_name, churn, number in (
                ("bulk-1edit: one forward", count_bulk_forward(seed, size), ("input object", size),
                 "dog-no-age", False, 0),
                ("bulk-1edit: sync 10", count_bulk_1edit(seed, size=size), ("input object", size),
                 "dog-no-age", False, 10),
                (f"bulk-churn: sync {sync_number}", count_bulk_churn(seed, sync_number, size),
                 ("edited object", edited), "ybirth", True, sync_number)):
            count.wall = least_wall(scenario_name, churn, seed, size, number)
            lines += report(f"{title} at {size:,} objects, seed {seed}", count, functions, per)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the bulk workloads (default 1)")
    parser.add_argument("--sync", type=int, default=4,
                        help="which bulk-churn sync to count (default 4)")
    parser.add_argument("--functions", type=int, default=10,
                        help="how many of the busiest functions to list (default 10)")
    parser.add_argument("--sizes", type=lambda text: [int(size) for size in text.split(",")],
                        help="count at each of these comma-separated model sizes instead")
    args = parser.parse_args(argv)
    if args.sync < 1:
        parser.error("--sync must be >= 1")
    if args.sizes and min(args.sizes) < 2:
        parser.error("each of --sizes must be >= 2")
    if args.sizes:
        print("\n".join(sweep(args.sizes, args.seed, args.sync, args.functions)))
        return 0
    lines = report("evmigrate bench: one cycle", count_bench_cycle(), args.functions)
    lines += report("tiny-cycles: one cycle", count_tiny(), args.functions)
    lines += report(f"bulk-churn: sync {args.sync}, seed {args.seed}",
                    count_bulk_churn(args.seed, args.sync), args.functions)
    lines += report(f"bulk-1edit: one forward at 2,000 objects, seed {args.seed}",
                    count_bulk_forward(args.seed), args.functions)
    lines += report(f"bulk-1edit: sync 10, seed {args.seed}", count_bulk_1edit(args.seed), args.functions)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
