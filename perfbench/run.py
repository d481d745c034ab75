"""Run one evmigrate benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload tiny-cycles --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` next to this directory, never from an
installed copy.  Load is one single-threaded closed loop: each operation
starts when the previous one returns.  Every operation's output is checked
outside the timed region.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones, from a run in which every other
operation is traced.  The exit code is 0 only when every operation passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "out"

BULK_SIZE = 20_000
#: forward migrations at the start and at the end of a bulk run, each in a
#: fresh session; forward_s is their median
BULK_FORWARDS_FIRST = 4
BULK_FORWARDS_LAST = 3
#: peak_rss_mb is read after this many syncs, so it does not depend on speed
BULK_RSS_SYNCS = 10
#: tiny cycles run before timing starts
TINY_WARMUP = 500
#: peak_rss_mb of tiny-cycles is read after this many timed cycles
TINY_RSS_CYCLES = 5000
#: set-up is sampled at the start and then between operations, so its
#: median sees the same host conditions as the operations
SETUP_FIRST = 3
SETUP_EVERY_NS = 1_000_000_000
#: the reference loop's time at the speed every reported time is scaled to
REFERENCE_NS = 4_000_000
REFERENCE_EVERY_NS = 100_000_000
#: reference samples within this distance of an operation scale its time
REFERENCE_WINDOW_NS = 250_000_000
#: cycles_per_s is the median rate over blocks of consecutive operations
#: lasting at least this long, so that a stall of the host in a few blocks
#: does not move it
RATE_BLOCK_NS = 100_000_000
#: tail percentile per workload.  A bulk run has about 28 syncs, so p75 is
#: the highest with about ten beyond it.  On tiny-cycles a scaled p99 moved
#: by up to a third between runs on the development VM, p90 by a tenth.
TAIL_PERCENTILE = {"tiny-cycles": 90, "bulk-1edit": 75, "bulk-churn": 75}


class Timings:
    """Durations, each with the start and end of the operation it was
    measured in."""

    def __init__(self):
        self.starts = array("q")
        self.ends = array("q")
        self.ns = array("q")

    def add(self, start, end, ns):
        self.starts.append(start)
        self.ends.append(end)
        self.ns.append(ns)

    def __len__(self):
        return len(self.ns)


_REFERENCE_KEYS = [f"k{i}" for i in range(10_000)]
_REFERENCE_TABLE = dict.fromkeys(_REFERENCE_KEYS, 1)
_REFERENCE_MODEL = workloads.generate_m1(0, 30, 30)


def reference_work():
    """Fixed work that does not touch evmigrate: dict lookups on a prebuilt
    table, then parsing, projecting and rendering a 60-object model with the
    benchmark's own code.  The two respond differently to the host's state;
    together they follow the program closest."""
    total = 0
    for _ in range(2):
        for key in _REFERENCE_KEYS:
            total += _REFERENCE_TABLE[key]
    text = workloads.render_instance(_REFERENCE_MODEL, workloads.M1_FEATURES)
    for _ in range(4):
        m2 = workloads.project_forward(
            workloads.parse_instance(text), workloads.M2_FEATURES["ybirth"]
        )
        workloads.render_instance(
            workloads.project_backward(m2, _REFERENCE_MODEL), workloads.M1_FEATURES
        )
    return total


class SpeedReference:
    """Times ``reference_work`` between operations, so that each reported
    time can be scaled to one interpreter speed.

    On a shared host the speed of the whole machine changes within seconds
    and by up to half, far more than a regression bound.  The ratio of an
    operation's time to the reference loop's time nearby holds within a few
    per cent: reported time = measured time * REFERENCE_NS / median of the
    reference samples within REFERENCE_WINDOW_NS of the operation.
    """

    def __init__(self):
        self.at = array("q")
        self.ns = array("q")
        self._due = 0

    def sample_if_due(self):
        """One sample per REFERENCE_EVERY_NS elapsed since the last, at most five."""
        late = perf_counter_ns() - self._due
        if late < 0:
            return
        for _ in range(min(5, 1 + late // REFERENCE_EVERY_NS)):
            start = perf_counter_ns()
            reference_work()
            self.at.append(start)
            self.ns.append(perf_counter_ns() - start)
        self._due = perf_counter_ns() + REFERENCE_EVERY_NS

    def scaled(self, timings):
        """The durations of ``timings`` at the reference speed."""
        out = []
        for start, end, ns in zip(timings.starts, timings.ends, timings.ns):
            lo = bisect_left(self.at, start - REFERENCE_WINDOW_NS)
            hi = bisect_right(self.at, end + REFERENCE_WINDOW_NS)
            nearby = self.ns[lo:hi] or self.ns[max(0, lo - 1):lo + 1]
            out.append(ns * REFERENCE_NS / statistics.median(nearby))
        return out


class Setup:
    """Imports evmigrate from this checkout's ``src`` and times its set-up:
    import, schema loading (done at import) and the first session.

    Each sample drops the package from ``sys.modules`` and imports it
    afresh; ``setup_s`` is the median.  Code already holding the previous
    import keeps using it.
    """

    def __init__(self):
        if not (SRC / "evmigrate" / "__init__.py").is_file():
            raise SystemExit(f"error: no evmigrate sources at {SRC}")
        sys.path.insert(0, str(SRC))
        self.timings = Timings()
        self._due = 0
        for _ in range(SETUP_FIRST):
            self.program = self.sample()
        if Path(self.program.__file__).resolve().parent != SRC / "evmigrate":
            raise SystemExit(f"error: imported evmigrate from {self.program.__file__}, not {SRC}")

    def sample(self):
        for name in [m for m in sys.modules if m == "evmigrate" or m.startswith("evmigrate.")]:
            del sys.modules[name]
        start = perf_counter_ns()
        ev = importlib.import_module("evmigrate")
        scenario = ev.SCENARIOS["ybirth"]
        ev.MigrationSession.create(scenario.m1_schema, scenario.m2_schema, workloads.REFERENCE_YEAR)
        end = perf_counter_ns()
        self.timings.add(start, end, end - start)
        self._due = end + SETUP_EVERY_NS
        return ev

    def sample_if_due(self):
        if perf_counter_ns() >= self._due:
            self.sample()


def public_api(ev):
    """The benchmark's own bindings of the public API; tracing swaps them."""
    return SimpleNamespace(
        session_create=ev.MigrationSession.create,
        decode_model=ev.decode_model,
        encode_model=ev.encode_model,
        migrate_forward=ev.migrate_forward,
        apply_mutations=ev.apply_mutations,
        migrate_backward=ev.migrate_backward,
    )


COUNTERS = (
    "codec.encode_log.bytes",
    "codec.decode_log.commands",
    "editor.parse_model.recovered",
    "editor.parse_model.ybirth_conversions",
)


def make_tracer(ev, api):
    """A tracer wrapping each layer at the name its callers look up."""
    sync = importlib.import_module("evmigrate.sync")
    commands = importlib.import_module("evmigrate.commands")
    tracer = tracing.Tracer()
    for attr, layer in (
        ("session_create", "sync.session_create"),
        ("decode_model", "codec.decode_model"),
        ("encode_model", "codec.encode_model"),
        ("migrate_forward", "sync.migrate_forward"),
        ("apply_mutations", "sync.apply_mutations"),
        ("migrate_backward", "sync.migrate_backward"),
    ):
        tracer.patch(api, attr, layer)
    tracer.patch(sync, "encode_log", "codec.encode_log", count_log_bytes)
    tracer.patch(sync, "decode_log", "codec.decode_log", count_log_commands)
    tracer.patch(commands, "run", "commands.run")
    tracer.patch(ev.Editor, "adopt_model", "editor.adopt_model")
    tracer.patch(ev.Editor, "parse_model", "editor.parse_model", count_parse)
    tracer.patch(ev.Editor, "merge_all", "editor.merge_all")
    tracer.patch(ev.InstanceModel, "validate", "metamodel.validate")
    tracer.counts.update(dict.fromkeys(COUNTERS, 0))
    return tracer


def count_log_bytes(counts, text, args):
    counts["codec.encode_log.bytes"] += len(text.encode("utf-8"))


def count_log_commands(counts, doc, args):
    counts["codec.decode_log.commands"] += len(doc.commands)


def count_parse(counts, commands, args):
    """Store-recovered dog ages and ybirth-to-age conversions of one parse,
    read from the commands it returns and the editor's schema."""
    classes = args[0].schema.classes
    lacks_age = {name for name, cls in classes.items() if "age" not in cls.attributes}
    from_ybirth = {name for name in lacks_age if "ybirth" in classes[name].attributes}
    for cmd in commands:
        if cmd.age is None or cmd.target_class not in lacks_age:
            continue
        if cmd.target_class in from_ybirth:
            counts["editor.parse_model.ybirth_conversions"] += 1
        elif cmd.target_class == "Dog":
            counts["editor.parse_model.recovered"] += 1


def transcripts_bytes(session):
    return sum(len(t.encode("utf-8")) for t in getattr(session, "transcripts", ()))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Runner:
    """Runs operations back to back, untraced, or alternately untraced and
    traced when given a tracer, and keeps each operation's timings.

    Between untraced operations it samples set-up and the reference speed.
    """

    def __init__(self, tracer, setup, reference):
        self.tracer = tracer
        self.setup = setup
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.samples = {}  # (interval, traced) -> Timings

    def op(self, name, body, check, trace=None):
        """Run ``body() -> (durations, output)`` then ``check(output)``.

        ``trace`` True or False forces tracing on or off; by default every
        other operation is traced.  Returns False when the operation raised
        or its output was wrong; its timings are then dropped.
        """
        if self.tracer is None:
            self.setup.sample_if_due()
            self.reference.sample_if_due()
        self.attempted += 1
        if trace is None:
            trace = self.attempted % 2 == 0
        traced = self.tracer is not None and trace
        start = perf_counter_ns()
        try:
            if traced:
                durations, output = self.tracer.run(name, body)
            else:
                durations, output = body()
            end = perf_counter_ns()
            check(output)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.first_failure = self.first_failure or f"{name}: {type(exc).__name__}: {exc}"
            return False
        for interval, ns in durations.items():
            self.samples.setdefault((interval, traced), Timings()).add(start, end, ns)
        return True

    def times(self, interval, traced=False):
        return self.samples.get((interval, traced), Timings())


def run_tiny(ev, api, runner, seconds, seed):
    """Full cycles on the pinned ``evmigrate bench`` fixture; seed-independent."""
    cli = importlib.import_module("evmigrate.cli")
    work = workloads.TinyWorkload(cli.BENCH_INPUT, cli.BENCH_MUTATION)
    scenario = ev.SCENARIOS["ybirth"]
    m1_schema, m2_schema = scenario.m1_schema, scenario.m2_schema
    last = []

    def cycle():
        t0 = perf_counter_ns()
        session = api.session_create(m1_schema, m2_schema, workloads.REFERENCE_YEAR)
        t1 = perf_counter_ns()
        m2_text = api.encode_model(
            api.migrate_forward(session, api.decode_model(work.input_text, m1_schema))
        )
        t2 = perf_counter_ns()
        api.apply_mutations(session.m2.model, work.mutation)
        m1_text = api.encode_model(api.migrate_backward(session))
        t3 = perf_counter_ns()
        last[:] = [session]
        return {"cycle": t3 - t0, "forward": t2 - t1, "backward": t3 - t2}, (m2_text, m1_text)

    def check(texts):
        work.check(*texts)

    for _ in range(TINY_WARMUP):
        runner.op("warmup", cycle, check, trace=False)
    runner.samples.clear()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    cycles = 0
    rss = None
    while cycles < TINY_RSS_CYCLES or perf_counter_ns() < deadline:
        runner.op("cycle", cycle, check)
        cycles += 1
        if cycles == TINY_RSS_CYCLES:
            rss = peak_rss_mb()
    return {"peak_rss_mb": rss, "rss_note": f"after {TINY_RSS_CYCLES} cycles",
            "transcripts_bytes": transcripts_bytes(last[0] if last else None)}


def run_bulk(ev, api, runner, seconds, seed, scenario_name, churn):
    """Forward migrations of a large model, then backward syncs in the last
    forward's session, then more forwards once that session is dropped."""
    work = workloads.BulkWorkload(seed, scenario_name, BULK_SIZE, churn)
    scenario = ev.SCENARIOS[scenario_name]
    m1_schema, m2_schema = scenario.m1_schema, scenario.m2_schema
    deadline = perf_counter_ns() + int(seconds * 1e9)
    state = {}

    def forward():
        session = api.session_create(m1_schema, m2_schema, workloads.REFERENCE_YEAR)
        t0 = perf_counter_ns()
        m2_text = api.encode_model(
            api.migrate_forward(session, api.decode_model(work.input_text, m1_schema))
        )
        t1 = perf_counter_ns()
        state["session"] = session
        return {"forward": t1 - t0}, m2_text

    def forwards(count, first):
        """Run ``count`` forwards; True when all passed.  In a traced run
        only the very first is traced."""
        for k in range(count):
            state.clear()
            gc.collect()
            if not runner.op("forward", forward, work.check_forward, trace=first and k == 0):
                return False
        return True

    start = perf_counter_ns()
    if not forwards(BULK_FORWARDS_FIRST, first=True):
        return {}
    # leave time for the last forwards, at the pace of the first ones
    first_ns = perf_counter_ns() - start
    sync_deadline = deadline - first_ns * BULK_FORWARDS_LAST // BULK_FORWARDS_FIRST
    session = state["session"]
    rss = None
    syncs = 0
    while syncs < BULK_RSS_SYNCS or perf_counter_ns() < sync_deadline:
        script = work.next_script()

        def sync():
            t0 = perf_counter_ns()
            api.apply_mutations(session.m2.model, script)
            m1_text = api.encode_model(api.migrate_backward(session))
            return {"cycle": perf_counter_ns() - t0}, m1_text

        if not runner.op("sync", sync, work.check_backward):
            return {}  # the session no longer matches the expected model
        syncs += 1
        if syncs == BULK_RSS_SYNCS:
            rss = peak_rss_mb()
    retained = transcripts_bytes(session)
    del session
    forwards(BULK_FORWARDS_LAST, first=False)
    return {"peak_rss_mb": rss, "rss_note": f"after {BULK_RSS_SYNCS} syncs",
            "transcripts_bytes": retained}


WORKLOADS = {
    "tiny-cycles": run_tiny,
    "bulk-1edit": lambda *a: run_bulk(*a, "dog-no-age", churn=False),
    "bulk-churn": lambda *a: run_bulk(*a, "ybirth", churn=True),
}


def block_rates(durations):
    """Operations per second in each block of consecutive operations that
    lasts at least RATE_BLOCK_NS (a trailing shorter block is dropped)."""
    rates = []
    count = total = 0
    for ns in durations:
        count += 1
        total += ns
        if total >= RATE_BLOCK_NS:
            rates.append(count * 1e9 / total)
            count = total = 0
    return rates or [count * 1e9 / total]


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


def end_to_end(workload, runner, extra):
    """The end-to-end metrics as (name, value, unit, note) rows; times are
    at the reference speed, and each note gives the raw figure."""

    def timed(name, timings, unit, per_unit, stat=statistics.median, label="median"):
        value = stat(runner.reference.scaled(timings)) / per_unit
        raw = stat(timings.ns) / per_unit
        return name, value, unit, f"n={len(timings)}, raw {label} {raw:.6g}"

    main = runner.times("cycle")
    tail = TAIL_PERCENTILE[workload]
    return [
        timed("setup_s", runner.setup.timings, "s", 1e9),
        timed("cycles_per_s", main, "1/s", 1, lambda ns: statistics.median(block_rates(ns)),
              "rate"),
        timed("cycle_p50_us", main, "us", 1e3),
        timed("cycle_tail_us", main, "us", 1e3, lambda ns: percentile(ns, tail), f"p{tail}"),
        timed("forward_s", runner.times("forward"), "s", 1e9),
        timed("backward_p50_ms", runner.times("backward") if workload == "tiny-cycles" else main,
              "ms", 1e6),
        ("peak_rss_mb", extra["peak_rss_mb"], "MB", extra["rss_note"]),
    ]


def per_layer(runner, extra):
    """The per-layer metrics as (name, value, unit, note) rows."""
    ops = f"per op, {len(runner.tracer.op_names)} ops"
    rows = []
    for name, value in runner.tracer.summary().items():
        if name.endswith("_pct"):
            rows.append((name, value, "%", "of traced time"))
        elif name.endswith("_ms"):
            rows.append((name, value, "ms", ops))
        else:
            rows.append((name, value, "bytes" if name.endswith("bytes") else "count", ops))
    rows.append(("sync.transcripts_bytes", extra["transcripts_bytes"], "bytes", "end of run"))
    untraced, traced = runner.times("cycle").ns, runner.times("cycle", traced=True).ns
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1) * 100
    rows.append(("trace.overhead_pct", overhead, "%",
                 f"median of {len(traced)} traced / {len(untraced)} untraced"))
    return rows


def run_one(args):
    reference = SpeedReference()
    reference.sample_if_due()
    setup = Setup()
    ev = setup.program
    api = public_api(ev)
    tracer = make_tracer(ev, api) if args.trace else None
    runner = Runner(tracer, setup, reference)
    with tracer or contextlib.nullcontext():
        extra = WORKLOADS[args.workload](ev, api, runner, args.seconds, args.seed)
    if tracer is None:
        reference.sample_if_due()  # the last operation's neighbourhood
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if runner.failed:
        print(f"FAILED {runner.failed}/{runner.attempted}: {runner.first_failure}")
        rows = []
    elif args.trace:
        rows = per_layer(runner, extra)
        trace_file = TRACE_DIR / f"trace-{args.workload}.tsv.gz"
        tracer.write(trace_file)
        print(f"spans: {len(tracer.starts)} written to {trace_file}")
    else:
        rows = end_to_end(args.workload, runner, extra)
    for name, value, unit, note in rows:
        print(f"{name:<42} {value:>14.6g} {unit:<6} {note}")
    print(f"{'error_rate':<42} {runner.failed / max(runner.attempted, 1):>14.6g} "
          f"{'':<6} {runner.failed}/{runner.attempted}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0:
            print(json.dumps(results))
            return proc.returncode
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
