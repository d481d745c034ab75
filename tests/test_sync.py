import random

import pytest

from evmigrate import (
    Editor,
    FormatError,
    InstanceModel,
    MigrationError,
    MigrationSession,
    ModelError,
    apply_mutations,
    copy_model,
    decode_model,
    encode_model,
    load_schema,
    migrate_backward,
    migrate_forward,
    model_equals,
)
from evmigrate.checks import random_model
from evmigrate.sync import SCENARIOS, TRANSCRIPT_LIMIT

from conftest import data_text


def pets_model(schema):
    return decode_model(data_text("pets.inst"), schema)


def session_for(name, year=2020):
    return MigrationSession.for_scenario(name, reference_year=year)


class TestMigrateForward:
    def test_age_becomes_ybirth(self):
        s = session_for("ybirth")
        m2 = migrate_forward(s, pets_model(s.m1.schema))
        assert m2.get("p1").attributes == {"name": "Alice", "ybirth": 1997}
        assert m2.get("d1").attributes == {"name": "Rex", "age": 4}
        assert m2.get("d1").references["owner"] == "p1"

    def test_empty_input_empty_output(self):
        s = session_for("ybirth")
        m2 = migrate_forward(s, InstanceModel(s.m1.schema))
        assert len(m2) == 0
        assert encode_model(m2) == ""

    def test_identity_scenario_preserves_model(self):
        s = session_for("identity")
        inp = pets_model(s.m1.schema)
        snapshot = copy_model(inp)
        m2 = migrate_forward(s, inp)
        assert model_equals(m2, snapshot)

    def test_transfer_goes_through_wire_text(self):
        s = session_for("identity")
        migrate_forward(s, pets_model(s.m1.schema))
        assert len(s.transcripts) == 1
        assert s.transcripts[0].startswith("format: 1\n")


class TestMigrateBackward:
    def test_no_modification_roundtrips_identically(self):
        for name in SCENARIOS:
            s = session_for(name)
            inp = pets_model(s.m1.schema)
            snapshot = copy_model(inp)
            migrate_forward(s, inp)
            back = migrate_backward(s)
            assert model_equals(back, snapshot), name

    def test_rename_transported_back(self):
        s = session_for("ybirth")
        migrate_forward(s, pets_model(s.m1.schema))
        apply_mutations(s.m2.model, "set p1 name Bob\n")
        back = migrate_backward(s)
        assert back.get("p1").attributes == {"name": "Bob", "age": 23}

    def test_task4_dog_age_survives_rename(self):
        s = session_for("dog-no-age")
        migrate_forward(s, pets_model(s.m1.schema))
        apply_mutations(s.m2.model, data_text("rename_dog.mut"))
        back = migrate_backward(s)
        assert back.get("d1").attributes == {"name": "Odie", "age": 4}

    def test_new_object_gets_generated_id(self):
        s = session_for("identity")
        migrate_forward(s, pets_model(s.m1.schema))
        apply_mutations(s.m2.model, "new Dog puppy\nset puppy name Fifi\nlink puppy owner p1\n")
        back = migrate_backward(s)
        new_dogs = [
            o for o in back.objects.values() if o.class_name == "Dog" and o.id != "d1"
        ]
        assert len(new_dogs) == 1
        assert new_dogs[0].id == "dog1"
        assert new_dogs[0].attributes == {"name": "Fifi"}
        assert new_dogs[0].references["owner"] == "p1"

    def test_age_edit_wins_when_m2_holds_both_and_both_were_edited(self):
        m2_schema = load_schema(
            "class Person\n  attr name string\n  attr age int\n  attr ybirth int\n"
            "class Dog\n  attr name string\n  attr age int\n  ref owner -> Person one\n",
            name="m2",
        )
        s = MigrationSession.create(SCENARIOS["identity"].m1_schema, m2_schema)
        migrate_forward(s, pets_model(s.m1.schema))
        apply_mutations(s.m2.model, "set p1 age 31\nset p1 ybirth 1990\n")
        back = migrate_backward(s)
        assert back.get("p1").attributes == {"name": "Alice", "age": 31}
        assert s.m2.model.get("p1").attributes == {"name": "Alice", "age": 31, "ybirth": 1989}

    def test_line_break_in_a_name_cannot_forge_a_command(self):
        forged = "a\n  - command: HaveDog\n    id: evil"
        s = session_for("identity")
        model = pets_model(s.m1.schema)
        with pytest.raises(MigrationError, match="line break"):
            model.set_attribute(model.get("p1"), "name", forged)
        model.get("p1").attributes["name"] = forged  # past the setter
        with pytest.raises(MigrationError, match="line break"):
            migrate_forward(s, model)
        assert s.m2.model.get("evil") is None

    def test_ybirth_edit_on_m2_lands_as_age(self):
        s = session_for("ybirth")
        migrate_forward(s, pets_model(s.m1.schema))
        apply_mutations(s.m2.model, "set p1 ybirth 1990\n")
        back = migrate_backward(s)
        assert back.get("p1").attributes["age"] == 30  # 2020 - 1990


#: how m2 holds an age: declared attribute line, the edit made on m2, and
#: the age m1 must end up with (pets.inst has Alice 23 and Rex 4); with
#: both declared, only ybirth is edited
_AGE_VARIANTS = {
    "age": ("  attr age int\n", "set {} age {}\n", lambda new, old: new),
    "both": ("  attr age int\n  attr ybirth int\n", "set {} ybirth {}\n", lambda new, old: new),
    "ybirth": ("  attr ybirth int\n", "set {} ybirth {}\n", lambda new, old: new),
    "neither": ("", "", lambda new, old: old),
}


class TestSchemaVariants:
    """GetPut on every m2 that replaces Person's and Dog's age by age,
    ybirth, both or nothing: what m2 can hold comes back edited, the rest comes
    back from m1's event store, and that store alone rebuilds m1."""

    @pytest.mark.parametrize("dog_age", sorted(_AGE_VARIANTS))
    @pytest.mark.parametrize("person_age", sorted(_AGE_VARIANTS))
    def test_edit_on_m2_roundtrips(self, person_age, dog_age):
        person_line, person_edit, person_expect = _AGE_VARIANTS[person_age]
        dog_line, dog_edit, dog_expect = _AGE_VARIANTS[dog_age]
        m1_schema = SCENARIOS["identity"].m1_schema
        m2_schema = load_schema(
            "class Person\n  attr name string\n" + person_line
            + "class Dog\n  attr name string\n" + dog_line + "  ref owner -> Person one\n",
            name="m2",
        )
        s = MigrationSession.create(m1_schema, m2_schema)
        migrate_forward(s, pets_model(m1_schema))
        edits = "set p1 name Bob\nset d1 name Odie\n"
        edits += person_edit.format("p1", 30 if person_age == "age" else 1990)
        edits += dog_edit.format("d1", 10 if dog_age == "age" else 2010)
        apply_mutations(s.m2.model, edits)
        back = migrate_backward(s)
        assert back.get("p1").attributes == {"name": "Bob", "age": person_expect(30, 23)}
        assert back.get("d1").attributes == {"name": "Odie", "age": dog_expect(10, 4)}
        assert back.get("d1").references == {"owner": "p1"}
        replayed = Editor(m1_schema)
        replayed.merge_all(s.m1.store.commands())
        assert model_equals(replayed.model, back)
        # a fresh forward from m2's schema reads every age m2 can hold
        fresh = MigrationSession.create(m2_schema, m1_schema)
        m1_again = migrate_forward(fresh, copy_model(s.m2.model))
        assert m1_again.get("d1").attributes.get("age") == dog_expect(10, None)
        assert m1_again.get("p1").attributes.get("age") == person_expect(30, None)


EMPTY_LOG = "format: 1\nreferenceYear: 2020\ncommands:\n"


class TestDeltaShipping:
    """A ship carries only the entries changed since the last exchange."""

    def test_forward_ships_the_whole_store(self):
        s = session_for("ybirth")
        migrate_forward(s, pets_model(s.m1.schema))
        assert s.transcripts[0] == data_text("golden_pets.cmdlog")

    def test_backward_without_edits_ships_no_commands(self):
        s = session_for("ybirth")
        migrate_forward(s, pets_model(s.m1.schema))
        migrate_backward(s)
        assert s.transcripts[-1] == EMPTY_LOG
        model, store = copy_model(s.m1.model), s.m1.store.snapshot()
        migrate_backward(s)
        assert s.transcripts[-1] == EMPTY_LOG
        assert model_equals(s.m1.model, model)
        assert s.m1.store.snapshot() == store

    def test_m1_edits_survive_on_objects_m2_did_not_change(self):
        # the one difference from shipping the whole store: m1's own
        # edits since the forward are overwritten only where m2 changed
        s = session_for("identity")
        migrate_forward(s, pets_model(s.m1.schema))
        apply_mutations(s.m1.model, "set p1 name Carol\nset d1 age 7\n")
        apply_mutations(s.m2.model, "set d1 name Odie\n")
        back = migrate_backward(s)
        assert back.get("p1").attributes == {"name": "Carol", "age": 23}
        assert back.get("d1").attributes == {"name": "Odie", "age": 4}

    def test_second_forward_resends_what_m1_no_longer_holds(self):
        s = session_for("dog-no-age")
        migrate_forward(s, pets_model(s.m1.schema))
        migrate_forward(s, decode_model("obj p1 Person\n  name Alice\n  age 23\n", s.m1.schema))
        back = migrate_backward(s)  # as a full ship would, m2's d1 comes back
        assert back.get("p1").attributes == {"name": "Alice", "age": 23}
        assert back.get("d1").attributes == {"name": "Rex", "age": 4}
        assert back.get("d1").references == {"owner": "p1"}

    def test_transcripts_keep_only_the_latest_texts(self):
        s = session_for("dog-no-age")
        migrate_forward(s, pets_model(s.m1.schema))
        for i in range(1000):
            apply_mutations(s.m2.model, f"set d1 name Dog{i}\n")
            migrate_backward(s)
        assert len(s.transcripts) == TRANSCRIPT_LIMIT
        assert "name: Dog999" in s.transcripts[-1]
        assert s.m1.model.get("d1").attributes == {"name": "Dog999", "age": 4}


class TestApplyMutations:
    def test_set_attribute(self, base_schema):
        model = pets_model(base_schema)
        apply_mutations(model, "set p1 name Bob\n")
        assert model.get("p1").attributes["name"] == "Bob"

    def test_new_and_link(self, base_schema):
        model = pets_model(base_schema)
        apply_mutations(model, "new Dog dog9\nset dog9 name Fifi\nlink dog9 owner p1\n")
        dog = model.get("dog9")
        assert dog.attributes == {"name": "Fifi"}
        assert dog.references["owner"] == "p1"

    def test_undeclared_attribute(self, base_schema):
        with pytest.raises(ModelError, match="salary"):
            apply_mutations(pets_model(base_schema), "set p1 salary 5\n")

    def test_unknown_object_id(self, base_schema):
        with pytest.raises(ModelError, match="unknown object id"):
            apply_mutations(pets_model(base_schema), "set nobody name X\n")

    def test_kind_mismatch(self, base_schema):
        with pytest.raises(ModelError, match="integer"):
            apply_mutations(pets_model(base_schema), "set p1 age young\n")

    def test_unknown_target(self, base_schema):
        with pytest.raises(ModelError, match="unknown target"):
            apply_mutations(pets_model(base_schema), "link d1 owner ghost\n")

    def test_wrong_target_class(self, base_schema):
        model = pets_model(base_schema)
        apply_mutations(model, "new Dog d2\n")
        with pytest.raises(ModelError, match="expected Person"):
            apply_mutations(model, "link d1 owner d2\n")

    @pytest.mark.parametrize(
        "mutation, error, match",
        [
            ("set nobody name X", ModelError, "unknown object id 'nobody'"),
            ("set p1 salary 5", ModelError, "class Person has no attribute 'salary'"),
            ("set d1 owner p1", ModelError, "class Dog has no attribute 'owner'"),
            ("set p1 age young", ModelError, "p1.age expects an integer, got 'young'"),
            ("new Cat c1", ModelError, "unknown class 'Cat'"),
            ("new Dog d1", ModelError, "duplicate object id 'd1'"),
            ("link d1 leash p1", ModelError, "class Dog has no reference 'leash'"),
            ("link d1 owner ghost", ModelError, "unknown target 'ghost'"),
            ("link d1 owner d1", ModelError, "target 'd1' is a Dog, expected Person"),
            ("drop p1", FormatError, "unknown mutation 'drop'"),
            ("set p1", FormatError, "expected 'set <id> <attr> <value>'"),
            ("new Dog", FormatError, "expected 'new <Class> <id>'"),
            ("link d1 owner", FormatError, "expected 'link <id> <ref> <targetId>'"),
        ],
        ids=["unknown-object", "undeclared-attribute", "set-on-reference", "age-not-integer",
             "unknown-class", "duplicate-id", "undeclared-reference", "unknown-target",
             "wrong-target-class", "unknown-op", "set-arity", "new-arity", "link-arity"],
    )
    def test_error_names_its_line(self, base_schema, mutation, error, match):
        script = f"# edits\nset p1 name Bob\n\n{mutation}\nset p1 name Carol\n"
        with pytest.raises(error, match=match) as exc:
            apply_mutations(pets_model(base_schema), script)
        assert type(exc.value) is error
        assert exc.value.line == 4
        assert str(exc.value).startswith("line 4: ")

    def test_unknown_op(self, base_schema):
        with pytest.raises(FormatError, match="unknown mutation"):
            apply_mutations(pets_model(base_schema), "drop p1\n")

    def test_comments_and_blanks_skipped(self, base_schema):
        model = pets_model(base_schema)
        apply_mutations(model, "# nothing\n\n")
        assert model.get("p1").attributes["name"] == "Alice"

    def test_values_may_contain_spaces(self, base_schema):
        model = pets_model(base_schema)
        apply_mutations(model, "set p1 name Alice van Dyk\n")
        assert model.get("p1").attributes["name"] == "Alice van Dyk"


def _attribute_diff(a, b):
    """(id, attr) pairs whose value differs between two models with equal id sets."""
    diff = set()
    for obj_id, oa in a.objects.items():
        ob = b.objects[obj_id]
        for key in set(oa.attributes) | set(ob.attributes):
            if oa.attributes.get(key) != ob.attributes.get(key):
                diff.add((obj_id, key))
    return diff


class TestTransportProperties:
    def test_single_mutation_changes_exactly_one_attribute(self):
        rng = random.Random(21)
        hits = 0
        for _ in range(40):
            scenario = SCENARIOS[rng.choice(sorted(SCENARIOS))]
            model = random_model(rng, scenario.m1_schema)
            persons = [o for o in model.objects.values() if o.class_name == "Person"]
            if not persons:
                continue
            hits += 1
            target = rng.choice(persons)
            snapshot = copy_model(model)
            s = MigrationSession.create(scenario.m1_schema, scenario.m2_schema)
            migrate_forward(s, model)
            apply_mutations(s.m2.model, f"set {target.id} name Renamed\n")
            back = migrate_backward(s)
            assert back.objects.keys() == snapshot.objects.keys()
            assert _attribute_diff(back, snapshot) <= {(target.id, "name")}
            assert back.get(target.id).attributes["name"] == "Renamed"
        assert hits > 10

    def test_task4_age_survives_many_cycles(self):
        s = session_for("dog-no-age")
        inp = pets_model(s.m1.schema)
        migrate_forward(s, inp)
        for i in range(5):
            apply_mutations(s.m2.model, f"set d1 name Dog{i}\n")
            back = migrate_backward(s)
            assert back.get("d1").attributes["age"] == 4
            assert back.get("d1").attributes["name"] == f"Dog{i}"
            migrate_forward(s, back)

    def test_repeated_cycles_are_stable(self):
        s = session_for("ybirth")
        inp = pets_model(s.m1.schema)
        snapshot = copy_model(inp)
        model = inp
        for _ in range(10):
            migrate_forward(s, model)
            model = migrate_backward(s)
            assert model_equals(model, snapshot)


class TestSessionSetup:
    def test_unknown_scenario(self):
        with pytest.raises(ModelError, match="unknown scenario"):
            MigrationSession.for_scenario("upgrade")

    def test_scenarios_have_distinct_or_equal_schemas(self):
        assert sorted(SCENARIOS) == ["dog-no-age", "identity", "ybirth"]
        for scenario in SCENARIOS.values():
            assert scenario.m1_schema.has_attribute("Person", "age")
        assert SCENARIOS["ybirth"].m2_schema.has_attribute("Person", "ybirth")
        assert not SCENARIOS["dog-no-age"].m2_schema.has_attribute("Dog", "age")
