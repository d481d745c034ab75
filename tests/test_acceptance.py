"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
All randomized criteria are seeded and deterministic.
"""

import random
import subprocess
import sys
import time

import pytest

from evmigrate import (
    Editor,
    EventStore,
    MigrationSession,
    apply_mutations,
    copy_model,
    decode_log,
    decode_model,
    encode_log,
    encode_model,
    have_dog,
    have_person,
    migrate_backward,
    migrate_forward,
    model_equals,
)
from evmigrate.checks import (
    _variant_schemas,
    commutativity_case,
    overwrite_case,
    random_model,
    roundtrip_case,
    seed_commands,
)
from evmigrate.cli import run_bench
from evmigrate.sync import SCENARIOS

from conftest import data_text


def verdict(number, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({title}): {status} - {detail}")
    assert ok, f"criterion {number} ({title}): {detail}"


def test_criterion_1_overwrite_law():
    cases_per_variant = 1000
    start = time.perf_counter()
    passed = 0
    total = 0
    for v, schema in enumerate(_variant_schemas()):
        for i in range(cases_per_variant):
            rng = random.Random(f"accept-overwrite:{v}:{i}")
            total += 1
            passed += overwrite_case(rng, schema=schema)
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "overwrite law",
        passed == total and elapsed < 5.0,
        f"{passed}/{total} same-id pairs over 3 schema variants, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_commutativity_law():
    start = time.perf_counter()
    passed = 0
    total = 0
    for i in range(200):  # sets of size <= 5, all permutations
        rng = random.Random(f"accept-commute-small:{i}")
        total += 1
        passed += commutativity_case(rng, rng.randint(1, 5), n_orders=None)
    for i in range(200):  # sets of size 8, sampled permutations
        rng = random.Random(f"accept-commute-large:{i}")
        total += 1
        passed += commutativity_case(rng, 8, n_orders=20)
    elapsed = time.perf_counter() - start
    verdict(
        2,
        "commutativity law",
        passed == total and elapsed < 30.0,
        f"{passed}/{total} command sets (200 exhaustive <=5, 200 sampled size 8), "
        f"{elapsed:.2f}s (< 30s)",
    )


def test_criterion_3_roundtrip_identity():
    passed = 0
    total = 0
    for name in sorted(SCENARIOS):
        for i in range(200):
            rng = random.Random(f"accept-roundtrip:{name}:{i}")
            total += 1
            passed += roundtrip_case(rng, scenario=SCENARIOS[name])
    verdict(
        3,
        "round-trip identity",
        passed == total,
        f"{passed}/{total} random models across {len(SCENARIOS)} scenarios",
    )


def test_criterion_4_task4_information_preservation():
    session = MigrationSession.for_scenario("dog-no-age")
    model = decode_model(data_text("pets.inst"), session.m1.schema)
    migrate_forward(session, model)
    assert "age" not in session.m2.model.get("d1").attributes
    apply_mutations(session.m2.model, "set d1 name Odie\n")
    back = migrate_backward(session)
    dog = back.get("d1")
    ok = dog.attributes.get("name") == "Odie" and dog.attributes.get("age") == 4
    verdict(
        4,
        "dropped-attribute recovery",
        ok,
        f"dog renamed to {dog.attributes.get('name')!r}, age {dog.attributes.get('age')!r} == 4",
    )


def test_criterion_5_age_ybirth_conversion():
    checked = 0
    ok = True
    for year in (2000, 2020, 2024):
        for age in range(0, 151):
            session = MigrationSession.for_scenario("ybirth", reference_year=year)
            model = decode_model(f"obj p1 Person\n  age {age}\n", session.m1.schema)
            m2 = migrate_forward(session, model)
            back = migrate_backward(session)
            checked += 1
            if m2.get("p1").attributes["ybirth"] != year - age:
                ok = False
            if back.get("p1").attributes["age"] != age:
                ok = False
    verdict(5, "age/ybirth conversion", ok, f"{checked} (age, year) pairs recovered exactly")


def _random_editor(rng, schema):
    ed = Editor(schema)
    for cmd in seed_commands(rng):
        ed.execute(cmd)
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            ed.execute(have_person(f"p{rng.randint(1, 9)}", name="N", age=rng.randint(0, 150)))
        else:
            ed.execute(
                have_dog(
                    f"d{rng.randint(1, 9)}",
                    owner_id=f"p{rng.randint(1, 9)}",
                    name="D",
                    age=rng.randint(0, 150),
                )
            )
    return ed


def test_criterion_6_codec_roundtrips():
    from test_codec import random_store

    store_ok = 0
    for i in range(500):
        rng = random.Random(f"accept-codec-store:{i}")
        store = random_store(rng)
        year = rng.choice([2000, 2020, 2024])
        doc = decode_log(encode_log(store, year))
        if {c.id: c for c in doc.commands} == store.snapshot() and doc.reference_year == year:
            store_ok += 1
    model_ok = 0
    schemas = _variant_schemas()
    for i in range(500):
        rng = random.Random(f"accept-codec-model:{i}")
        schema = rng.choice(schemas)
        model = random_model(rng, schema)
        if model_equals(decode_model(encode_model(model), schema), model):
            model_ok += 1
    verdict(
        6,
        "codec round-trips",
        store_ok == 500 and model_ok == 500,
        f"{store_ok}/500 stores, {model_ok}/500 models",
    )


def test_criterion_7_self_merge_fixpoint():
    passed = 0
    for i in range(200):
        rng = random.Random(f"accept-selfmerge:{i}")
        ed = _random_editor(rng, rng.choice(_variant_schemas()))
        model_before = copy_model(ed.model)
        store_before = ed.store.snapshot()
        ed.merge_all(decode_log(encode_log(ed.store, ed.reference_year)).commands)
        if model_equals(ed.model, model_before) and ed.store.snapshot() == store_before:
            passed += 1
    verdict(7, "self-merge fixpoint", passed == 200, f"{passed}/200 random editors unchanged")


def test_criterion_8_benchmark_under_budget():
    report = run_bench("ybirth", 10_000)
    line = report.machine_line()
    emitted = line.startswith("bench scenario=ybirth iterations=10000 total_s=")
    print(line)
    verdict(
        8,
        "benchmark",
        emitted and report.total_seconds < 2.0,
        f"10000 cycles in {report.total_seconds:.3f}s, "
        f"{report.per_iteration_micros:.1f} us/cycle (budget 2.0s, 200 us/cycle); "
        f"report line {'emitted' if emitted else 'NOT emitted'}",
    )


def test_criterion_9_check_determinism():
    argv = [sys.executable, "-m", "evmigrate", "check", "--cases", "500", "--seed", "7"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.count("\n") == 5
    )
    verdict(
        9,
        "check determinism",
        ok,
        f"two runs of 'check --cases 500 --seed 7' byte-identical "
        f"({len(first.stdout)} bytes of transcript)",
    )
