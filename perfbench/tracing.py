"""Span recorder for the traced benchmark run.

Each span records its name, start, end, parent span and the operation it
belongs to; all spans of one benchmark operation share that operation's id.
Spans are kept in memory in flat arrays and written out once, at the end.

Wrappers are installed only for the duration of a traced operation, at the
names the callers look up at call time: module attributes
(``evmigrate.sync.encode_log``, ``evmigrate.sync.decode_log``,
``evmigrate.commands.run``), methods on their class (``Editor.*``,
``InstanceModel.validate``) and the benchmark's own bindings of the public
API.  An untraced operation runs the program unwrapped.
"""

from __future__ import annotations

import gc
import gzip
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = (
    "codec.decode_model",
    "codec.encode_model",
    "codec.encode_log",
    "codec.decode_log",
    "metamodel.validate",
    "editor.adopt_model",
    "editor.parse_model",
    "editor.merge_all",
    "commands.run",
    "sync.session_create",
    "sync.apply_mutations",
    "sync.migrate_forward",
    "sync.migrate_backward",
)

#: root span name prefix: the benchmark's own time inside an operation
BENCH = "bench"


def self_times(parents, starts, ends):
    """Per-span self time: the span's duration minus the part of it that
    its child spans cover.

    Spans must be numbered in start order, with ``parents[i] < i`` (or -1
    for a root).  Children of one parent then arrive in start order, so one
    sweep merges their intervals, clipped to the parent, without counting
    an overlap twice.
    """
    covered = [0] * len(starts)
    frontier = list(starts)  # per span: how far its children's union reaches
    for i, parent in enumerate(parents):
        if parent < 0:
            continue
        lo = max(starts[i], frontier[parent])
        hi = min(ends[i], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            frontier[parent] = hi
    return [end - start - cover for start, end, cover in zip(starts, ends, covered)]


class Tracer:
    """Records spans and counters for the operations run inside ``op``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("h")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.op_names: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.gc_ns = 0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._patches: list[tuple] = []
        self._gc_start = None
        self._active = False
        self._self_times = None

    # -- recording ------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id):
        span = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(len(self.op_names) - 1)
        self.ends.append(0)
        self._stack.append(span)
        self.starts.append(perf_counter_ns())
        return span

    def _end(self, span):
        self.ends[span] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """A traced stand-in for ``fn``.  ``count(counts, result, args)``
        runs after the operation ends, outside every span."""
        name_id = self._name_id(name)
        begin, end, pending = self._begin, self._end, self._pending

        def traced(*args, **kwargs):
            span = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if count is not None:
                pending.append((count, result, args))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, count=None):
        """Register ``owner.attr`` to be wrapped during traced operations."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self.wrap(name, original, count)))

    def run(self, op_name, body):
        """Run ``body()`` as one traced operation and return its result."""
        self.op_names.append(op_name)
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        root = self._begin(self._name_id(f"{BENCH}.{op_name}"))
        self._active = True
        try:
            return body()
        finally:
            self._active = False
            self._end(root)
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            for count, result, args in self._pending:
                count(self.counts, result, args)
            self._pending.clear()

    def gc_callback(self, phase, info):
        """For ``gc.callbacks``: time the collections inside traced operations."""
        if phase == "start":
            self._gc_start = perf_counter_ns() if self._active else None
        elif self._gc_start is not None:
            self.gc_ns += perf_counter_ns() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def __enter__(self):
        gc.callbacks.append(self.gc_callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self.gc_callback)

    # -- results --------------------------------------------------------

    def self_times(self):
        """Self time of every span, computed once the recording is over."""
        if self._self_times is None:
            self._self_times = self_times(self.parents, self.starts, self.ends)
        return self._self_times

    def summary(self):
        """Per-operation self time (ms) and calls for every layer, the
        benchmark's own time and the recorded counters; the share of traced
        time spent in garbage collection and collections per operation."""
        selfs = self.self_times()
        n_ops = len(self.op_names)
        if n_ops == 0:
            raise RuntimeError("no traced operation")
        root_ns = [0] * n_ops
        total_ns = [0] * n_ops
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for span, name_id in enumerate(self.name_ids):
            name = self.names[name_id]
            if name.startswith(BENCH + "."):
                name = BENCH
                root_ns[self.ops[span]] = self.ends[span] - self.starts[span]
            self_ns[name] += selfs[span]
            calls[name] += 1
            total_ns[self.ops[span]] += selfs[span]
        if total_ns != root_ns:
            raise RuntimeError("spans do not nest: self times do not add up to the operation")
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / n_ops
            out[f"{layer}.calls"] = calls[layer] / n_ops
        out[f"{BENCH}.self_ms"] = self_ns[BENCH] / 1e6 / n_ops
        for name, value in self.counts.items():
            out[name] = value / n_ops
        traced_ns = sum(root_ns)
        out["runtime.gc_pct"] = 100 * self.gc_ns / traced_ns if traced_ns else 0.0
        out["runtime.gc_collections"] = self.gc_collections / n_ops
        return out

    def write(self, path):
        """Write every span as gzip'd TSV, one line per span."""
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op\top_name\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            for span, name_id in enumerate(self.name_ids):
                op = self.ops[span]
                out.write(
                    f"{op}\t{self.op_names[op]}\t{span}\t{self.parents[span]}\t"
                    f"{self.names[name_id]}\t{self.starts[span]}\t{self.ends[span]}\t"
                    f"{selfs[span]}\n"
                )
