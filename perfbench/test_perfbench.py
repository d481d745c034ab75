"""Tests for the benchmark's own code.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import gzip
import json
import statistics
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

PETS = """\
obj p1 Person
  name Alice
  age 23
obj d1 Dog
  name Rex
  age 4
  owner p1
"""

# tests/data/golden_task4_back.inst: pets through dog-no-age, d1 renamed on m2
TASK4_BACK = """\
obj p1 Person
  name Alice
  age 23
obj d1 Dog
  name Odie
  age 4
  owner p1
"""


# -- generator ------------------------------------------------------------


def test_same_seed_gives_identical_inputs_and_scripts():
    a = workloads.BulkWorkload(7, "ybirth", 300, churn=True)
    b = workloads.BulkWorkload(7, "ybirth", 300, churn=True)
    assert a.input_text == b.input_text
    assert [a.next_script() for _ in range(3)] == [b.next_script() for _ in range(3)]


def test_other_seed_gives_other_inputs():
    a = workloads.BulkWorkload(7, "dog-no-age", 300, churn=False)
    b = workloads.BulkWorkload(8, "dog-no-age", 300, churn=False)
    assert a.input_text != b.input_text
    assert a.next_script() != b.next_script()


def test_generated_model_shape():
    work = workloads.BulkWorkload(1, "ybirth", 300, churn=True)
    model = workloads.parse_instance(work.input_text)
    dogs = [values for cls, values in model.values() if cls == "Dog"]
    assert len(model) == 300 and len(dogs) == 150
    assert all(model[dog["owner"]][0] == "Person" for dog in dogs)
    script = work.next_script()
    assert script.count("\n") == 30 + 4 * 10  # 10 % of objects edited, 10 new dogs


# -- expected models ------------------------------------------------------


def test_expected_dog_no_age_rename_matches_golden_file():
    m1 = workloads.parse_instance(PETS)
    m2 = workloads.project_forward(m1, workloads.M2_FEATURES["dog-no-age"])
    assert m2 == {
        "p1": ("Person", {"name": "Alice", "age": 23}),
        "d1": ("Dog", {"name": "Rex", "owner": "p1"}),
    }
    workloads.apply_script(m2, "# give the dog a new name on the target side\nset d1 name Odie\n")
    back = workloads.project_backward(m2, m1)
    assert workloads.render_instance(back, workloads.M1_FEATURES) == TASK4_BACK


def test_expected_ybirth_conversion_both_ways():
    m1 = workloads.parse_instance(PETS)
    m2 = workloads.project_forward(m1, workloads.M2_FEATURES["ybirth"])
    assert m2["p1"] == ("Person", {"name": "Alice", "ybirth": 1997})
    workloads.apply_script(m2, "set p1 ybirth 2000\nnew Dog n1\nset n1 age 2\nlink n1 owner p1\n")
    back = workloads.project_backward(m2, m1)
    assert back["p1"] == ("Person", {"name": "Alice", "age": 20})
    assert back["n1"] == ("Dog", {"age": 2, "owner": "p1"})


def test_created_objects_match_by_content_not_id():
    expected = {"p1": ("Person", {"name": "A"}), "n1": ("Dog", {"name": "B"})}
    known = {"p1"}
    workloads.compare_models(
        {"p1": ("Person", {"name": "A"}), "dog1": ("Dog", {"name": "B"})}, expected, known
    )
    with pytest.raises(workloads.Mismatch):
        workloads.compare_models(
            {"p1": ("Person", {"name": "A"}), "dog1": ("Dog", {"name": "C"})}, expected, known
        )


def test_wrong_expected_output_is_caught():
    work = workloads.TinyWorkload(PETS, "set d1 name Odie\n")
    m2_text = PETS.replace("age 23", "ybirth 1997")
    work.check(m2_text, TASK4_BACK)
    with pytest.raises(workloads.Mismatch):
        work.check(m2_text, PETS)
    with pytest.raises(workloads.Mismatch):
        work.check(m2_text.replace("1997", "1996"), TASK4_BACK)


# -- spans ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    #        0: root [0, 100]
    #        1: child [10, 30]      2: grandchild [15, 25]
    #        3: child [20, 50]  (overlaps 1: union of 1 and 3 is [10, 50])
    #        4: child [90, 120] (clipped to the parent's end: 10 covered)
    parents = [-1, 0, 1, 0, 0]
    starts = [0, 10, 15, 20, 90]
    ends = [100, 30, 25, 50, 120]
    assert tracing.self_times(parents, starts, ends) == [50, 10, 10, 30, 30]


def test_self_times_add_up_to_the_root_when_spans_nest():
    parents = [-1, 0, 1, 1, 0, -1, 5]
    starts = [0, 5, 6, 20, 60, 200, 210]
    ends = [100, 50, 10, 45, 70, 300, 220]
    selfs = tracing.self_times(parents, starts, ends)
    assert sum(selfs[:5]) == 100 and sum(selfs[5:]) == 100


class _Module:
    pass


def test_tracer_records_nested_calls_only_inside_operations():
    mod = _Module()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = tracing.Tracer()
    tracer.patch(mod, "inner", "commands.run")
    tracer.patch(mod, "outer", "editor.merge_all", lambda counts, r, a: counts.update(out=r))
    original = mod.outer
    assert mod.outer(1) == 4 and not tracer.starts  # untraced: nothing recorded
    with tracer:
        assert tracer.run("op", lambda: mod.outer(1) + mod.outer(2)) == 10
    assert mod.outer is original  # wrappers removed after the operation
    assert [tracer.names[i] for i in tracer.name_ids] == [
        "bench.op", "editor.merge_all", "commands.run", "editor.merge_all", "commands.run"
    ]
    assert list(tracer.parents) == [-1, 0, 1, 0, 3]
    summary = tracer.summary()
    assert summary["commands.run.calls"] == 2 and summary["editor.merge_all.calls"] == 2
    assert tracer.counts["out"] == 6  # the last result, counted after the operation


# -- reference speed ------------------------------------------------------


def test_times_are_scaled_by_the_reference_samples_nearby():
    ms = 1_000_000
    reference = run.SpeedReference()
    # reference samples: 4 ms around t=0 s, 8 ms (a host half as fast) around t=10 s
    for at, ns in [(0, 4 * ms), (100 * ms, 4 * ms), (10_000 * ms, 8 * ms), (10_100 * ms, 8 * ms)]:
        reference.at.append(at)
        reference.ns.append(ns)
    timings = run.Timings()
    timings.add(150 * ms, 200 * ms, 50 * ms)
    timings.add(10_150 * ms, 10_250 * ms, 100 * ms)
    timings.add(5_000 * ms, 5_010 * ms, 6 * ms)  # none nearby: the closest on each side
    assert reference.scaled(timings) == [
        50 * ms * run.REFERENCE_NS / (4 * ms),
        100 * ms * run.REFERENCE_NS / (8 * ms),
        6 * ms * run.REFERENCE_NS / (6 * ms),
    ]


def test_rate_is_taken_per_block_so_one_stall_does_not_move_its_median():
    ms = 1_000_000
    durations = [50 * ms] * 10 + [2000 * ms] + [50 * ms] * 10
    rates = run.block_rates(durations)
    assert rates == [20.0] * 5 + [1e9 / (2000 * ms)] + [20.0] * 5
    assert statistics.median(rates) == 20.0


# -- whole runs -----------------------------------------------------------


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "BULK_SIZE", 200)
    monkeypatch.setattr(run, "BULK_RSS_SYNCS", 3)
    monkeypatch.setattr(run, "RATE_BLOCK_NS", 1_000_000)
    monkeypatch.setattr(run, "TINY_WARMUP", 5)
    monkeypatch.setattr(run, "TINY_RSS_CYCLES", 20)
    monkeypatch.setattr(run, "SETUP_FIRST", 1)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(small, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)]) == 0
    result = _last_json(capsys)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        with gzip.open(run.TRACE_DIR / f"trace-{workload}.tsv.gz", "rt") as spans:
            assert spans.readline().startswith("op\top_name\tspan\tparent")


def test_run_fails_on_a_wrong_expected_output(small, capsys, monkeypatch):
    real_init = workloads.TinyWorkload.__init__

    def wrong_expectation(self, *args):
        real_init(self, *args)
        self.m1_text = self.m1_text.replace("Odie", "Rex")

    monkeypatch.setattr(workloads.TinyWorkload, "__init__", wrong_expectation)
    assert run.main(["--workload", "tiny-cycles", "--seed", "1", "--seconds", "0.1"]) == 1
    result = _last_json(capsys)
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
