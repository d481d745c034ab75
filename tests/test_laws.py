"""Property tests for the two command laws and their corollaries."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from evmigrate import (
    SCENARIOS,
    Editor,
    MigrationSession,
    copy_model,
    decode_model,
    encode_log,
    have_dog,
    have_person,
    migrate_backward,
    migrate_forward,
    model_equals,
)
from evmigrate.checks import (
    commutativity_case,
    delta_case,
    overwrite_case,
    random_distinct_commands,
    roundtrip_case,
    seed_commands,
    _copy_session,
    _variant_schemas,
)

PETS_TEXT = "obj p1 Person\n  name Alice\n  age 23\nobj d1 Dog\n  name Rex\n  age 4\n  owner p1\n"

names = st.one_of(st.none(), st.sampled_from(["", "Ann", "Bo b", "Rex-2"]))
ages = st.one_of(st.none(), st.integers(min_value=0, max_value=150))
owners = st.sampled_from(["p1", "p2"])
schema_index = st.integers(min_value=0, max_value=2)


def seeded(schema, rng_seed=0):
    ed = Editor(schema)
    for cmd in seed_commands(random.Random(rng_seed)):
        ed.execute(cmd)
    return ed


@given(
    which=schema_index,
    name1=names, age1=ages, owner1=owners,
    name2=st.sampled_from(["", "Zoe"]), age2=st.integers(min_value=0, max_value=150),
    owner2=owners,
    dog=st.booleans(),
)
def test_overwrite_law_with_full_second_command(which, name1, age1, owner1, name2, age2, owner2, dog):
    schema = _variant_schemas()[which]
    target = "d1" if dog else "p1"
    if dog:
        c1 = have_dog(target, owner_id=owner1, name=name1, age=age1)
        c2 = have_dog(target, owner_id=owner2, name=name2, age=age2)
    else:
        c1 = have_person(target, name=name1, age=age1)
        c2 = have_person(target, name=name2, age=age2)
    both = seeded(schema)
    both.execute(c1)
    both.execute(c2)
    only = seeded(schema)
    only.execute(c2)
    assert model_equals(both.model, only.model)
    assert both.store == only.store


@given(which=schema_index, data=st.data())
def test_commutativity_all_orders_small_sets(which, data):
    schema = _variant_schemas()[which]
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=99999)))
    cmds = random_distinct_commands(rng, data.draw(st.integers(min_value=1, max_value=3)))
    reference = None
    for order in itertools.permutations(cmds):
        ed = seeded(schema)
        for cmd in order:
            ed.execute(cmd)
        if reference is None:
            reference = ed
        else:
            assert model_equals(ed.model, reference.model)
            assert ed.store == reference.store


@given(which=schema_index, name=names, age=ages, owner=st.one_of(st.none(), owners), dog=st.booleans())
def test_idempotence_for_any_command(which, name, age, owner, dog):
    schema = _variant_schemas()[which]
    cmd = have_dog("d1", owner_id=owner, name=name, age=age) if dog else have_person("p9", name=name, age=age)
    ed = seeded(schema)
    ed.execute(cmd)
    once_model = copy_model(ed.model)
    once_store = ed.store.snapshot()
    ed.execute(cmd)
    assert model_equals(ed.model, once_model)
    assert ed.store.snapshot() == once_store


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_case_generators_pass_on_the_real_implementation(seed):
    rng = random.Random(seed)
    assert overwrite_case(random.Random(seed))
    assert commutativity_case(random.Random(seed), rng.randint(1, 4))
    assert roundtrip_case(random.Random(seed))


@settings(max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scenario=st.sampled_from(sorted(SCENARIOS)),
)
def test_delta_ship_equals_full_ship(seed, scenario):
    assert delta_case(random.Random(seed), SCENARIOS[scenario])


def test_session_copy_tracks_its_own_writes():
    session = MigrationSession.for_scenario("identity")
    migrate_forward(session, decode_model(PETS_TEXT, session.m1.schema))
    migrate_backward(session)  # m2's parse now reads only what changes
    dup = _copy_session(session)
    assert dup.m2.schema is session.m2.schema
    dup.m2.model.set_attribute(dup.m2.model.get("d1"), "name", "Odie")
    assert session.m2.model.unseen("parse") == {}
    assert list(dup.m2.model.unseen("parse")) == [dup.m2.model.get("d1")]
    dup.m2.parse_model()
    assert "name: Odie" in encode_log(dup.m2.store.unshipped(), 2020)
    assert session.m2.store.get("d1").name == "Rex"


def test_oracle_catches_an_untracked_write(monkeypatch):
    # the delta law fails when a setter's write goes unseen, and when a
    # write straight into an object's mappings is not refused
    from evmigrate import checks
    from evmigrate.metamodel import InstanceModel

    def unmarked_set_attribute(model, obj, name, value):
        obj._attributes[name] = value

    monkeypatch.setattr(InstanceModel, "set_attribute", unmarked_set_attribute)
    assert checks.check_delta(seed=42, cases=200).failures > 0
    monkeypatch.undo()
    assert checks.check_delta(seed=42, cases=200).failures == 0
    monkeypatch.setattr(checks, "refuses", lambda target, mutator, *args: False)
    assert checks.check_delta(seed=42, cases=200).failures > 0


def test_commutativity_oracle_catches_missing_stub_creation(monkeypatch):
    # an implementation that only links owners that already exist is
    # order-dependent: dog-before-person silently drops the link
    from evmigrate import commands as commands_mod
    from evmigrate.checks import check_commutativity

    original = commands_mod.run

    def no_stub_run(cmd, editor):
        if cmd.kind != commands_mod.HAVE_DOG or cmd.owner_id is None:
            return original(cmd, editor)
        original(commands_mod.have_dog(cmd.id, name=cmd.name, age=cmd.age), editor)
        owner = editor.model.get(cmd.owner_id)
        if owner is not None:
            editor.model.set_reference(editor.model.get(cmd.id), "owner", owner.id)
        return cmd.id

    monkeypatch.setattr(commands_mod, "run", no_stub_run)
    assert check_commutativity(seed=2, cases=80, max_commands=4).failures > 0
