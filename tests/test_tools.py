"""The bytecode counter in tools/ counts the same on every run, and
measures the same retained session bytes and id strings held twice."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_bytecodes.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("count_bytecodes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tiny_cycle_counts_the_same_twice(tool):
    first, second = tool.count_tiny(), tool.count_tiny()
    assert first.layers == second.layers and first.functions == second.functions
    assert first.total == sum(first.functions.values())
    # a merge runs each command through its kind's generated runner: m2
    # merges the fixture's four, m1 the renamed dog
    assert first.functions["<evmigrate kernel m2.Person run>.run"] > 0
    assert first.functions["<evmigrate kernel m1.Dog run>.run"] > 0
    assert set(first.layers) <= {*tool.LAYERS, tool.BENCH}


def test_a_bench_cycle_counts_the_same_twice(tool):
    first, second = tool.count_bench_cycle(), tool.count_bench_cycle()
    assert first.layers == second.layers and first.functions == second.functions
    assert first.total == sum(first.functions.values()) > 0
    # the bench forwards a copy of its template, which it never encodes
    assert first.layers["codec.encode_model"] == 0 and first.layers["codec.decode_model"] == 0
    assert not [name for name in first.functions if name.endswith(">.render")]


def test_a_bulk_churn_sync_counts_the_same_twice(tool):
    first, second = (tool.count_bulk_churn(seed=1, sync_number=2, size=200) for _ in range(2))
    assert first.layers == second.layers and first.functions == second.functions
    assert first.layers["editor.merge_all"] > 0 and first.layers["codec.encode_model"] > 0
    assert first.retained == second.retained > 0
    assert first.tracked == second.tracked > 0
    assert first.twice == second.twice


def test_a_bulk_1edit_sync_counts_the_same_twice(tool):
    first, second = (tool.count_bulk_1edit(seed=1, sync_number=3, size=600) for _ in range(2))
    assert first.layers == second.layers and first.functions == second.functions
    assert first.layers["sync.migrate_backward"] > 0 and first.layers["codec.encode_model"] > 0
    assert first.retained == second.retained > 0
    assert first.tracked == second.tracked > 0
    assert first.twice == second.twice


def test_a_bulk_forward_counts_the_same_twice(tool, capsys):
    first, second = (tool.count_bulk_forward(seed=1, size=200) for _ in range(2))
    assert first.layers == second.layers and first.functions == second.functions
    assert first.layers["sync.migrate_forward"] > 0 and first.layers["codec.decode_model"] > 0
    # m1 is valid by construction and keeps the text it was decoded from:
    # the forward neither validates nor renders it
    assert first.layers["metamodel.validate"] == 0 and first.functions["evmigrate.codec.KeptBlocks.__init__"]
    assert {name for name in first.functions if name.startswith("<evmigrate kernel m1.")} == {
        "<evmigrate kernel m1.Person>.build", "<evmigrate kernel m1.Dog>.build"}
    assert first.retained == second.retained > 0
    # 200 objects on each side, none of them a stored command
    assert first.tracked == second.tracked and 400 <= first.tracked < 600
    assert first.twice == second.twice
    assert tool.report("f", first, 5) == tool.report("f", second, 5)
    assert [line.split() for line in tool.report("f", first, 0)[-4:]] == [
        ["session", "holds", "id", "strings", "twice", "(count)", str(first.twice)],
        ["session", "tracks", "(objects)", str(first.tracked)],
        ["session", "retains", "(bytes)", str(first.retained)],
        ["session", "retains", "per", "input", "object", "(bytes)", str(-(-first.retained // 200))]]


def test_a_forward_retains_at_most_1000_bytes_per_input_object(tool):
    # each object holds its values in one tuple laid out by its class, not
    # in an attribute dict and a reference dict (1,401 bytes per object)
    count = tool.count_bulk_forward(seed=1, size=2000)
    assert count.objects == 2000 and count.retained <= 1000 * count.objects


def test_a_forward_costs_the_same_per_object_at_1000_and_4000_objects(tool):
    # each layer's work grows linearly with the model: per object, its
    # bytecodes agree within 1 % and the bytes the session retains within 2 %
    small, large = (tool.count_bulk_forward(seed=1, size=size) for size in (1000, 4000))
    assert (small.objects, large.objects) == (1000, 4000)
    per_object = [(small.total / 1000, large.total / 4000)] + [
        (small.layers[name] / 1000, large.layers[name] / 4000)
        for name in small.layers if small.layers[name] >= 1000]
    assert len(per_object) > 5
    for at_small, at_large in per_object:
        assert at_large == pytest.approx(at_small, rel=0.01)
    assert large.retained / 4000 == pytest.approx(small.retained / 1000, rel=0.02)


def test_retained_bytes_are_what_the_result_holds(tool):
    # 1,000 bare objects of 16 bytes each, and a list of 1,000 pointers
    assert 1000 * (16 + 8) <= tool.retained(lambda: [object() for _ in range(1000)])[0] < 1000 * 64


def test_tracked_objects_are_what_the_collector_scans_of_the_result(tool):
    # the list and the 1,000 lists in it; exact tuples of atoms are untracked
    assert tool.retained(lambda: [[] for _ in range(1000)])[1] == 1001
    assert tool.retained(lambda: [(str(i), i, None) for i in range(1000)])[1] == 1


def test_the_report_lists_layers_then_functions(tool):
    count = tool.count_tiny()
    lines = tool.report("tiny", count, functions=3)
    assert lines[0] == "tiny" and lines[-5].split() == ["total", str(count.total)]
    assert len(lines[-3:]) == 3


def test_every_one_edit_sync_counts_the_same_at_2000_and_20000_objects(tool):
    # m1 keeps its text as a piece table: after one untraced sync (a
    # process's first backward also generates m1's runner), what a one-edit
    # sync costs depends neither on the model's size nor on the sync number
    counts = [count for size in (2000, 20000) for count in tool.count_1edit_syncs(seed=1, syncs=20, size=size)]
    assert len(counts) == 38 and counts[0].layers["codec.encode_model"] > 0
    assert all(count.layers == counts[0].layers for count in counts)


def test_the_size_sweep_reports_each_operation_per_object(tool):
    lines = tool.sweep([200, 400], seed=1, sync_number=2, functions=0)
    titles = [line for line in lines if not line.startswith(" ")]
    assert titles == [f"{what} at {size} objects, seed 1" for size in (200, 400) for what in (
        "bulk-1edit: one forward", "bulk-1edit: sync 10", "bulk-churn: sync 2")]
    totals = [line.split() for line in lines if line.split()[0] == "total"]
    # per input object, then per edited object: a tenth of them, plus ten new dogs
    per = [200, 200, 30, 400, 400, 50]
    assert [float(row[2]) for row in totals] == [round(int(row[1]) / n, 2) for row, n in zip(totals, per)]
    # beside each total, the least wall time of five untraced runs, in ms;
    # a layer's row has no such column
    assert [line.split()[-4:] for line in lines if line.split()[0] == "layer"] == [["wall", "ms", "of", "5"]] * 6
    assert all(len(row) == 4 and 0 < float(row[3]) < 60_000 for row in totals)
    assert all(len(line.split()) == 3 for line in lines if line.split()[0] in tool.LAYERS)
    forward, one_edit = float(totals[3][3]), float(totals[4][3])
    assert one_edit < forward  # a one-rename sync is a small part of a forward


def test_every_churn_sync_costs_the_same_per_edited_object_at_1000_and_4000_objects(tool, monkeypatch):
    # a churn script edits a tenth of the objects and mints dogs; with one
    # minted dog per ten edits at both sizes, a sync's bytecodes per edited
    # object agree within 2 %, in total and in each layer; 1,000 and 4,000
    # objects fill the model's dicts alike
    counts = {}
    for size in (1000, 4000):
        edits = int(size * tool.workloads.CHURN_SHARE)
        monkeypatch.setattr(tool.workloads, "CHURN_NEW_DOGS", edits // 10)
        count = tool.Count()
        tool.synced_session(tool.workloads.BulkWorkload(1, "ybirth", size, True), "ybirth", 2, {2: count})
        counts[size] = count, edits + edits // 10
    (small, at_small), (large, at_large) = counts.values()
    assert at_small == 110 and at_large == 440 and small.layers["sync.apply_mutations"] > 0
    busy = [name for name in small.layers if small.layers[name] >= 1000]
    assert len(busy) > 5
    for name in busy:
        assert large.layers[name] / at_large == pytest.approx(small.layers[name] / at_small, rel=0.02), name
    assert large.total / at_large == pytest.approx(small.total / at_small, rel=0.02)
