import copy
import gc
import pickle
import random
from collections import Counter

import pytest

from evmigrate import (
    AttributeDef,
    DynamicObject,
    Command,
    Editor,
    EventStore,
    FormatError,
    InstanceModel,
    MergeError,
    MetaClass,
    MetaModel,
    MigrationError,
    MigrationSession,
    ModelError,
    ReferenceDef,
    SchemaError,
    apply_mutations,
    copy_model,
    decode_log,
    decode_model,
    encode_log,
    encode_model,
    load_schema,
    migrate_backward,
    migrate_forward,
    model_equals,
)
from evmigrate import cli, codec
from evmigrate import editor as editor_module
from evmigrate.checks import random_model
from evmigrate.commands import have_dog, have_person
from evmigrate.sync import SCENARIOS, TRANSCRIPT_LIMIT

from conftest import count_checked_commands, data_text, spy_runs


def pets_model(schema):
    return decode_model(data_text("pets.inst"), schema)


def session_for(name, year=2020):
    return MigrationSession.for_scenario(name, reference_year=year)


@pytest.mark.parametrize("age", [10**600 - 1, 2021 - 10**600], ids=["1e600-1", "2021-1e600"])
def test_an_age_near_the_int_bound_survives_a_forward_and_a_backward(age):
    # the most positive age, and the most negative one whose ybirth
    # (2020 - age = 10**600 - 1) is inside the bound too
    s = session_for("ybirth")
    text = f"obj p1 Person\n  name Ann\n  age {age}\n"
    m2 = migrate_forward(s, decode_model(text, s.m1.schema))
    assert m2.get("p1").attributes == {"name": "Ann", "ybirth": 2020 - age}
    assert encode_model(decode_model(encode_model(m2), s.m2.schema)) == encode_model(m2)
    assert encode_model(migrate_backward(s)) == text


def test_a_conversion_past_the_int_bound_is_refused():
    # age 1 - 10**600 is inside the bound, but its ybirth, 10**600 + 2019,
    # is not: the forward refuses it before m2 holds anything
    s = session_for("ybirth")
    m1 = decode_model(f"obj p1 Person\n  name Ann\n  age {1 - 10**600}\n", s.m1.schema)
    with pytest.raises(MergeError, match=r"p1\.ybirth = referenceYear - age would have more than 600 digits"):
        migrate_forward(s, m1)
    assert len(s.m2.model) == 0 and not s.m2.store
    # and a ybirth of 1 - 10**600 in m2 would give an age of 10**600 + 2019
    s = session_for("ybirth")
    m2 = migrate_forward(s, decode_model("obj p1 Person\n  name Ann\n  age 3\n", s.m1.schema))
    m2.set_attribute(m2.get("p1"), "ybirth", 1 - 10**600)
    with pytest.raises(ModelError, match=r"p1\.age = referenceYear - ybirth would have more than 600 digits"):
        migrate_backward(s)


class TestMigrateForward:
    def test_a_receiver_of_another_reference_year_refuses_the_log(self):
        scenario = SCENARIOS["ybirth"]
        s = MigrationSession(Editor(scenario.m1_schema, 2020), Editor(scenario.m2_schema, 2000), 2020)
        with pytest.raises(FormatError, match="reference year 2020, receiver expects 2000"):
            migrate_forward(s, pets_model(s.m1.schema))
        assert len(s.m2.model) == 0 and not s.m2.store

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
        with pytest.raises(TypeError):
            model.get("p1").attributes["name"] = forged  # past the setter
        migrate_forward(s, model)
        assert s.m2.model.get("evil") is None and "evil" not in s.transcripts[-1]

    def test_line_break_in_an_object_id_is_a_model_error(self):
        # such an id can neither enter a model nor be rebound into one
        s = session_for("identity")
        model = pets_model(s.m1.schema)
        with pytest.raises(ModelError, match="line break"):
            model.add(DynamicObject("a\nb", "Person"))
        with pytest.raises(AttributeError, match="sealed"):
            model.get("p1").id = "a\nb"
        assert sorted(migrate_forward(s, model).objects) == ["d1", "p1"]

    def test_a_dangling_owner_written_past_the_setter_is_a_model_error(self):
        # nothing validates m2 again before a backward parse: the write is
        # refused, and the setter raises the model's one target error
        s = session_for("identity")
        migrate_forward(s, pets_model(s.m1.schema))
        d1 = s.m2.model.get("d1")
        with pytest.raises(TypeError):
            d1.references["owner"] = "nobody"
        with pytest.raises(ModelError, match=r"^d1\.owner: unknown target 'nobody' \(it does not exist\)$"):
            s.m2.model.set_reference(d1, "owner", "nobody")
        assert model_equals(migrate_backward(s), pets_model(s.m1.schema))

    def test_an_owner_of_the_wrong_class_keeps_its_error(self):
        s = session_for("identity")
        migrate_forward(s, pets_model(s.m1.schema))
        d1 = s.m2.model.get("d1")
        with pytest.raises(TypeError):
            d1.references["owner"] = "d1"
        with pytest.raises(ModelError, match=r"^d1\.owner: target 'd1' is a Dog, expected Person$"):
            s.m2.model.set_reference(d1, "owner", "d1")
        assert model_equals(migrate_backward(s), pets_model(s.m1.schema))

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


#: a model size at which a full pass would show in the counts below
LARGE = 1000


def _bulk_text(size):
    """An instance file with ``size`` objects: persons, then dogs each owned by one."""
    persons = size // 2
    lines = [f"obj p{i} Person\n  name P{i}\n  age {i % 90}\n" for i in range(persons)]
    lines += [
        f"obj d{i} Dog\n  name D{i}\n  age {i % 15}\n  owner p{i % persons}\n"
        for i in range(size - persons)
    ]
    return "".join(lines)


class TestSyncCostsChangedObjectsOnly:
    """Counted calls, not times: a one-edit backward parses one object on
    m2 and re-renders one instance-file block of m1, from the first
    backward after a forward on."""

    def _count(self, monkeypatch):
        parsed, rendered = [], []
        original_parse = Editor._parse

        def counting_parse(editor, obj, kind):
            parsed.append(obj.id)
            return original_parse(editor, obj, kind)

        def counting(render):
            return lambda obj: rendered.append(obj.id) or render(obj)

        monkeypatch.setattr(Editor, "_parse", counting_parse)
        for scenario in SCENARIOS.values():  # every class renderer of every bundled schema
            for schema in (scenario.m1_schema, scenario.m2_schema):
                renderers = codec._kernels(schema)[2]
                for class_name, render in list(renderers.items()):
                    monkeypatch.setitem(renderers, class_name, counting(render))
        return parsed, rendered

    def test_a_forward_from_canonical_text_validates_and_renders_nothing(self, monkeypatch):
        # m1 is valid by construction, and its decode sliced its blocks
        # from the text it was read from: only an object written after the
        # decode, through a setter, is rendered
        text = _bulk_text(2000)
        validated = []
        original_validate = InstanceModel.validate
        monkeypatch.setattr(InstanceModel, "validate", lambda model, schema=None:
                            validated.append(model) or original_validate(model, schema))
        _, rendered = self._count(monkeypatch)
        for edit in (None, "set d7 name Odie\n"):
            s = session_for("dog-no-age")
            m1 = decode_model(text, s.m1.schema)
            if edit:
                apply_mutations(m1, edit)
            rendered.clear()
            migrate_forward(s, m1)
            assert validated == [] and rendered == []
            assert encode_model(m1) == (text if edit is None else text.replace("D7\n", "Odie\n", 1))
            assert rendered == ([] if edit is None else ["d7"])  # the one block m1 renders

    def test_a_bench_forward_renders_nothing(self, monkeypatch):
        # the bench forwards a copy of a decoded template: a model built in
        # code keeps no text, and is rendered only when it is encoded
        scenario = SCENARIOS["ybirth"]
        template = decode_model(cli.BENCH_INPUT, scenario.m1_schema)
        _, rendered = self._count(monkeypatch)
        s = MigrationSession.create(scenario.m1_schema, scenario.m2_schema)
        migrate_forward(s, copy_model(template))
        assert rendered == [] and s.m1.model.blocks is None
        assert encode_model(s.m1.model) == cli.BENCH_INPUT and len(rendered) == len(template)

    def test_one_rename_parses_and_renders_one_object(self, monkeypatch):
        s = session_for("dog-no-age")
        migrate_forward(s, decode_model(_bulk_text(2000), s.m1.schema))
        encode_model(migrate_backward(s))  # a backward with no edit
        apply_mutations(s.m2.model, "set d7 name Odie\n")
        parsed, rendered = self._count(monkeypatch)
        text = encode_model(migrate_backward(s))
        assert parsed == ["d7"]
        assert rendered == ["d7"]
        assert "obj d7 Dog\n  name Odie\n  age 7\n  owner p7\n" in text
        assert text == encode_model(copy_model(s.m1.model))  # a full render agrees

    def test_one_rename_re_joins_one_chunk(self, monkeypatch):
        # m1 keeps its text in chunks of codec.CHUNK blocks: the edited
        # object's chunk is spliced again, the other chunks' texts are kept
        s = session_for("dog-no-age")
        migrate_forward(s, decode_model(_bulk_text(2000), s.m1.schema))
        kept = s.m1.model.blocks
        assert len(kept.texts) == 8
        before = list(kept.texts)
        apply_mutations(s.m2.model, "set d7 name Odie\n")
        _, rendered = self._count(monkeypatch)
        text = encode_model(migrate_backward(s))
        assert rendered == ["d7"]
        # exactly one chunk text is replaced, and no chunk is added
        assert [i for i, chunk in enumerate(kept.texts) if chunk is not before[i]] == [1007 // codec.CHUNK]
        assert len(kept.texts) == 8
        assert text == encode_model(copy_model(s.m1.model))

    def test_one_rename_sorts_only_the_shipped_delta(self, monkeypatch):
        # the store keeps no order: only the encoder of the 1-command ship
        # sorts, and the parse hands back m2's store itself, not a copy
        s = session_for("dog-no-age")
        migrate_forward(s, decode_model(_bulk_text(2000), s.m1.schema))
        apply_mutations(s.m2.model, "set d7 name Odie\n")
        sorted_sizes, parsed = [], []
        original_order, original_parse_model = editor_module.canonical_order, Editor.parse_model

        def counting_order(cmds):
            cmds = list(cmds)
            sorted_sizes.append(len(cmds))
            return original_order(cmds)

        def recording_parse_model(editor):
            parsed.append(original_parse_model(editor))
            return parsed[-1]

        monkeypatch.setattr(editor_module, "canonical_order", counting_order)
        monkeypatch.setattr(Editor, "parse_model", recording_parse_model)
        migrate_backward(s)
        assert sorted_sizes == [1]
        assert len(parsed) == 1 and parsed[0] is s.m2.store

    def test_an_object_can_be_neither_replaced_nor_rebound(self):
        # on a tracking model either would go unseen: the backward would
        # skip the object, and m1 would keep its old block
        s = session_for("identity")
        migrate_forward(s, decode_model(_bulk_text(2000), s.m1.schema))
        with pytest.raises(TypeError):
            s.m2.model.objects["p1"] = DynamicObject("p1", "Person", {"name": "Zed"})
        with pytest.raises(AttributeError, match="sealed"):
            s.m2.model.get("p1").attributes = {"name": "Zed", "age": 1}
        with pytest.raises(AttributeError):
            s.m2.model.get("p1").attributes.update(name="Zed", age=1)
        apply_mutations(s.m2.model, "set p1 name Zed\nset p1 age 1\n")  # the writes that are seen
        text = encode_model(migrate_backward(s))
        assert "obj p1 Person\n  name Zed\n  age 1\n" in text
        assert text == encode_model(copy_model(s.m1.model))

    @pytest.mark.parametrize("scenario", ["dog-no-age", "ybirth"])
    def test_the_forward_readies_the_first_backward(self, monkeypatch, scenario):
        # the forward renders m1 and lets m2's parse skip what it merged,
        # so no backward pays for a full pass
        s = session_for(scenario)
        migrate_forward(s, decode_model(_bulk_text(2000), s.m1.schema))
        apply_mutations(s.m2.model, "set d7 name Odie\nset p3 name Ann\n")
        parsed, rendered = self._count(monkeypatch)
        text = encode_model(migrate_backward(s))
        assert parsed == ["p3", "d7"]
        assert sorted(rendered) == ["d7", "p3"]
        assert text == encode_model(copy_model(s.m1.model))

    def test_a_large_forward_runs_each_command_once(self, monkeypatch):
        # on m2, merging; m1's parse would only write back what it read
        s = session_for("dog-no-age")
        m1 = decode_model(_bulk_text(LARGE), s.m1.schema)
        runs = []
        for editor in (s.m1, s.m2):
            spy_runs(monkeypatch, editor, lambda cmd, editor: runs.append(editor))
        migrate_forward(s, m1)
        assert runs == [s.m2] * LARGE

    def test_a_forward_admits_each_object_once_and_makes_only_owner_stubs(self, monkeypatch):
        # a runner builds a new object complete and admits it; only an owner
        # whose dog runs first (dogs run before persons) is admitted empty
        persons = [f"obj p{i} Person\n  name P{i}\n  age {i % 90}\n" for i in range(1000)]
        dogs = [f"obj d{i} Dog\n  name D{i}\n  owner p{i % 600}\n" for i in range(1000)]
        s = session_for("dog-no-age")
        m1 = decode_model("".join(persons + dogs), s.m1.schema)
        admitted, stubs = Counter(), []
        original_admit = InstanceModel._admit

        def counting_admit(model, obj):
            admitted.update([(model, obj.id)])
            if not obj.attributes:
                stubs.append((model, obj.class_name, obj.id))
            return original_admit(model, obj)

        monkeypatch.setattr(InstanceModel, "_admit", counting_admit)
        m2 = migrate_forward(s, m1)
        assert set(admitted.values()) == {1} and set(admitted) == {(m2, obj_id) for obj_id in m2.objects}
        assert sorted(stubs) == sorted((m2, "Person", f"p{i}") for i in range(600))
        stub_ids = {obj_id for _, _, obj_id in stubs}
        assert [obj_id for _, _, obj_id in stubs] == [obj_id for obj_id in m2.objects if obj_id in stub_ids]
        assert encode_model(m2) == encode_model(copy_model(m2))  # model order as before: p0..p599 follow their dogs
        assert list(m2.objects)[:3] == ["d0", "p0", "d1"]

    def test_a_large_forward_still_runs_where_age_and_ybirth_disagree(self):
        both = load_schema(
            "class Person\n  attr name string\n  attr age int\n  attr ybirth int\n"
            "class Dog\n  attr name string\n  ref owner -> Person one\n",
            name="m1",
        )
        s = MigrationSession.create(both, SCENARIOS["ybirth"].m2_schema)
        m1 = decode_model("".join(f"obj p{i} Person\n  age 5\n  ybirth 1990\n" for i in range(LARGE)), both)
        migrate_forward(s, m1)
        assert m1.get("p7").attributes == {"age": 5, "ybirth": 2015}  # ybirth follows the age

    def test_a_small_session_tracks_as_a_large_one(self, monkeypatch):
        # a mark is one dict insert per write, so every model tracks: a
        # 4-object forward readies the first backward too
        s = session_for("dog-no-age")
        migrate_forward(s, decode_model(_bulk_text(4), s.m1.schema))
        assert s.m2.model.unseen("parse") == {} and s.m1.model.blocks is not None
        apply_mutations(s.m2.model, "set d1 name Odie\n")
        parsed, rendered = self._count(monkeypatch)
        assert "obj d1 Dog\n  name Odie\n" in encode_model(migrate_backward(s))
        assert parsed == rendered == ["d1"]

    def test_a_schema_that_drops_a_field_keeps_the_full_first_parse(self):
        # m2 cannot hold the dogs' names: each dog derives a command that
        # differs from the one merged, so the first backward must see all
        m2_schema = load_schema(
            "class Person\n  attr name string\n  attr age int\n"
            "class Dog\n  attr age int\n  ref owner -> Person one\n",
            name="m2",
        )
        s = MigrationSession.create(SCENARIOS["identity"].m1_schema, m2_schema)
        migrate_forward(s, decode_model(_bulk_text(2000), s.m1.schema))
        assert s.m2.model.unseen("parse") is None
        migrate_backward(s)
        assert s.m2.store.get("d7").name is None  # every dog was parsed again
        assert s.m1.model.get("d7").attributes["name"] == "D7"  # a merge writes no UNSET

    def test_an_owner_stub_without_its_own_command_keeps_the_full_first_parse(self):
        editor = Editor(SCENARIOS["identity"].m2_schema)
        dogs = [have_dog(f"d{i}", "p0", f"D{i}", 1) for i in range(LARGE)]
        editor.merge_all(dogs)  # p0 is a stub no command built
        assert editor.model.unseen("parse") is None
        editor.merge_all([have_person("p0", "Ann", 30)])
        assert editor.model.unseen("parse") is None


class TestLeanSession:
    """A session keeps each fact once: an editor maps back to its id only
    an object registered under another id than its model key, each object
    holds one tuple of values laid out by its class, and a store whose
    every entry is unshipped keeps no second map of them."""

    def test_only_a_renamed_object_is_mapped_back_to_its_id(self):
        s = session_for("dog-no-age")
        migrate_forward(s, decode_model(_bulk_text(2000), s.m1.schema))
        assert s.m1._id_of_object == {} and s.m2._id_of_object == {}
        apply_mutations(s.m2.model, "new Dog dog9\nset dog9 name Rex\n")
        dog9 = s.m2.model.get("dog9")
        migrate_backward(s)
        assert s.m2._id_of_object == {dog9: "dog1"} and s.m2.get_or_create("Dog", "dog1") is dog9
        assert s.m1._id_of_object == {} and s.m1.model.get("dog1").attributes == {"name": "Rex"}
        apply_mutations(s.m2.model, "set dog9 name Max\n")
        migrate_backward(s)  # the second parse reuses the minted id
        assert s.m2._id_of_object == {dog9: "dog1"} and s.m2.id_for(dog9) == "dog1"
        assert s.m1.model.get("dog1").attributes == {"name": "Max"} and s.m1.model.get("dog2") is None

    @staticmethod
    def _classes(model):
        persons = [obj for obj in model.objects.values() if obj.class_name == "Person"]
        dogs = [obj for obj in model.objects.values() if obj.class_name == "Dog"]
        return persons, dogs

    @pytest.mark.parametrize("name", ["dog-no-age", "ybirth"])
    def test_objects_hold_one_tuple_laid_out_by_their_class(self, name):
        s = session_for(name)
        m1 = decode_model(_bulk_text(2000), s.m1.schema)
        m2 = migrate_forward(s, m1)  # m2's persons are owner stubs: dogs run first
        apply_mutations(s.m2.model, "new Person pn\nset pn name Nell\n")
        migrate_backward(s)  # m1's runner builds person1
        assert s.m1.model.get("person1").attributes["name"] == "Nell"
        lines = decode_model("# not canonical\n" + _bulk_text(4), s.m1.schema)
        added = InstanceModel(s.m1.schema).add(DynamicObject("p", "Person", references={}))
        copied = copy_model(m2)
        for model in (m1, m2, lines, copied):
            persons, dogs = self._classes(model)
            assert persons and dogs
            for obj in (*persons, *dogs):
                layout = model.schema.classes[obj.class_name]
                assert obj._layout is layout and type(obj._values) is tuple
                assert len(obj._values) == len(layout.slots)
        assert all(obj._values is m2.get(obj_id)._values for obj_id, obj in copied.objects.items())
        assert added._layout is s.m1.schema.classes["Person"] and added._values == (None, None)
        with pytest.raises(TypeError):
            m2.get("p0").references["owner"] = "p0"
        with pytest.raises(ModelError, match="no reference 'owner'"):
            m2.set_reference(m2.get("p0"), "owner", "p1")
        assert m2.get("p0").references == {} and model_equals(copied, m2)

    def test_a_copy_and_a_pickle_lay_out_their_objects_and_compare_equal(self):
        s = session_for("ybirth")
        m2 = migrate_forward(s, decode_model(_bulk_text(2000), s.m1.schema))
        for clone in (copy.deepcopy(m2), pickle.loads(pickle.dumps(m2))):
            assert model_equals(clone, m2)
            persons, dogs = self._classes(clone)
            classes = clone.schema.classes
            assert all(obj._layout is classes[obj.class_name] and type(obj._values) is tuple
                       for obj in (*persons, *dogs))
            clone.set_reference(dogs[0], "owner", persons[1].id)  # a copy is writable as usual
            assert dogs[0].references == {"owner": persons[1].id}

    def test_each_reference_holds_its_targets_own_id(self):
        # the fast and the line reader, the runners and ``link`` link each
        # reference to its target's own id string, not to a copy of it
        s = session_for("ybirth")
        migrate_forward(s, decode_model(_bulk_text(2000), s.m1.schema))
        rng = random.Random(17)
        for k in range(5):
            apply_mutations(s.m2.model, _churn_script(rng, 2000, 10 * k))
            migrate_backward(s)
        assert len(s.m1.store) == len(s.m2.store) == 2050 and len(s.m2._minted) == 50
        d = session_for("dog-no-age")
        migrate_forward(d, decode_model("# read line by line\n" + _bulk_text(2000), d.m1.schema))
        for model in (s.m1.model, s.m2.model, d.m1.model, d.m2.model):
            objects = model.objects
            assert sum(1 for obj in objects.values() if obj.references) >= 1000
            assert all(target is objects[target].id for obj in objects.values() for value in obj.references.values()
                       for target in (value if type(value) is tuple else (value,)))

    def test_a_parse_into_an_empty_store_keeps_one_map(self):
        s = session_for("dog-no-age")
        s.m1.adopt_model(decode_model(_bulk_text(2000), s.m1.schema))
        store = s.m1.parse_model()
        assert len(store) == 2000 and store._unshipped is store._entries
        assert store.unshipped() is store

    def test_a_reused_session_ships_back_only_what_the_forward_did_not_bring(self):
        s = session_for("identity")
        migrate_forward(s, decode_model(_bulk_text(40), s.m1.schema))
        apply_mutations(s.m2.model, "new Dog extra\n")
        migrate_backward(s)
        m2_store = s.m2.store
        assert m2_store._unshipped == {}
        # a second forward, of a model without the minted dog: m2's store
        # restarts all unshipped, then drops what m1 sent
        migrate_forward(s, decode_model(_bulk_text(40), s.m1.schema))
        assert m2_store._unshipped is not m2_store._entries
        assert list(m2_store._unshipped) == ["dog1"] and m2_store.unshipped().snapshot() == {
            "dog1": m2_store.get("dog1")}


class TestSessionSetup:
    def test_unknown_scenario(self):
        with pytest.raises(ModelError, match="unknown scenario"):
            MigrationSession.for_scenario("upgrade")

    def test_scenarios_have_distinct_or_equal_schemas(self):
        assert sorted(SCENARIOS) == ["dog-no-age", "identity", "ybirth"]
        for scenario in SCENARIOS.values():
            assert "age" in scenario.m1_schema.cls("Person").attributes
        assert "ybirth" in SCENARIOS["ybirth"].m2_schema.cls("Person").attributes
        assert "age" not in SCENARIOS["dog-no-age"].m2_schema.cls("Dog").attributes


class TestNoCheckLost:
    """``Editor._parse`` builds its commands without ``Command``'s checks;
    what it reads from a mapping anyone can write, and the ids it mints,
    are still checked before they can reach the wire."""

    @pytest.mark.parametrize("size", [4, 2000], ids=["untracked", "tracked"])
    def test_a_line_break_written_into_a_name_is_refused_at_the_backward(self, size):
        s = session_for("ybirth")
        migrate_forward(s, decode_model(_bulk_text(size), s.m1.schema))
        assert s.m2.model.readers
        forged = "Rex\n  - command: HaveDog\n    id: evil"
        d1 = s.m2.model.get("d1")
        with pytest.raises(TypeError):
            d1.attributes["name"] = forged
        with pytest.raises(ModelError, match="without line breaks"):
            s.m2.model.set_attribute(d1, "name", forged)
        migrate_backward(s)
        assert "evil" not in s.transcripts[-1]
        assert s.m1.model.get("evil") is None

    def test_a_class_name_with_a_line_break_mints_no_id(self):
        # a minted id is the class name lowercased: the schema that would
        # mint "own\ner1" is refused before any editor exists
        owner = MetaClass("Own\ner")
        dog = MetaClass("Dog", [AttributeDef("name", "string")],
                        [ReferenceDef("owner", "Own\ner", False)])
        with pytest.raises(SchemaError, match="must be one token"):
            MetaModel("pets", [dog, owner])


def _churn_script(rng, size, first=0):
    """A bulk-churn-style script: a tenth of the objects renamed or given a
    new ybirth, and ten new dogs from ``n<first>`` on, each with a name, an
    age and an owner."""
    lines = []
    for i in rng.sample(range(size), size // 10):
        obj_id = f"p{i}" if i < size // 2 else f"d{i - size // 2}"
        if obj_id[0] == "p" and rng.random() < 0.5:
            lines.append(f"set {obj_id} ybirth {2020 - rng.randint(1, 99)}")
        else:
            lines.append(f"set {obj_id} name N{rng.randint(0, 999)}")
    for k in range(first, first + 10):
        lines += [f"new Dog n{k}", f"set n{k} name New{k}", f"set n{k} age {k}",
                  f"link n{k} owner p{rng.randrange(size // 2)}"]
    return "\n".join(lines) + "\n"


class TestStoreKeepsExactTuples:
    """Every store entry is an exact tuple, so the cyclic collector stops
    scanning it; every public way out of a store, and out of a decoded log,
    is a ``Command``."""

    SIZE = 2000

    def _synced(self):
        """A 2,000-object ybirth session after a forward and one churn backward."""
        s = session_for("ybirth")
        migrate_forward(s, decode_model(_bulk_text(self.SIZE), s.m1.schema))
        apply_mutations(s.m2.model, _churn_script(random.Random(16), self.SIZE))
        migrate_backward(s)
        return s

    def test_every_entry_is_an_exact_tuple_the_collector_untracks(self):
        s = self._synced()
        gc.collect()
        for store in (s.m1.store, s.m2.store):
            assert len(store) == self.SIZE + 10
            entries = list(store._entries.values())
            assert {type(e) for e in entries} == {tuple}
            assert not any(map(gc.is_tracked, entries))

    def test_entries_leave_the_store_as_commands(self):
        s = self._synced()
        for store in (s.m1.store, s.m2.store):
            assert type(store.get("d7")) is Command and store.get("nobody") is None
            assert {type(c) for c in store} == {type(c) for c in store.commands()} == {Command}
            assert {type(c) for c in store.snapshot().values()} == {Command}
            assert store.snapshot() == store._entries and list(store) == list(store._entries.values())
        doc = decode_log(s.transcripts[-1])
        assert type(doc.entries[0]) is tuple and {type(c) for c in doc.commands} == {Command}
        assert doc.commands is doc.commands  # built once, at the first read

    def test_the_stores_equal_those_of_the_checked_path(self, monkeypatch):
        s = self._synced()
        with monkeypatch.context() as patch:  # every log through the line reader: checked commands
            patch.setattr(codec, "_decode_canonical", lambda text: None)
            checked = self._synced()
        assert list(checked.transcripts) == list(s.transcripts)
        assert s.m1.store == checked.m1.store and s.m2.store == checked.m2.store
        assert model_equals(s.m1.model, checked.m1.model) and model_equals(s.m2.model, checked.m2.model)
        gc.collect()  # the checked path stores ``tuple(cmd)`` of its commands
        assert {type(e) for e in checked.m1.store._entries.values()} == {tuple}
        assert not any(map(gc.is_tracked, checked.m2.store._entries.values()))

    def test_a_non_canonical_log_decodes_to_checked_commands(self, monkeypatch):
        text = self._synced().transcripts[-1].replace("\n", "\r\n")
        built = count_checked_commands(monkeypatch)
        doc = decode_log(text)
        assert len(built) == len(doc.commands) > 0 and {type(c) for c in doc.commands} == {Command}
        assert doc.entries is doc.commands

    def test_a_failed_merge_of_read_tuples_names_a_command(self):
        store = EventStore()
        store.put(have_person("p1"))
        store.put(have_dog("d1", owner_id="p1"))
        text = encode_log(store, 2020)
        editor = Editor(load_schema("class Person\n  attr name string\n"))
        with pytest.raises(MergeError, match="schema declares no Dog class") as exc:
            editor.merge_all(decode_log(text).entries)
        assert type(exc.value.command) is Command and exc.value.command == have_dog("d1", owner_id="p1")
