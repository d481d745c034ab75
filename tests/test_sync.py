import random

import pytest

from evmigrate import (
    AttributeDef,
    DynamicObject,
    Editor,
    FormatError,
    InstanceModel,
    MetaClass,
    MetaModel,
    MigrationError,
    MigrationSession,
    ModelError,
    ReferenceDef,
    apply_mutations,
    copy_model,
    decode_model,
    encode_model,
    load_schema,
    migrate_backward,
    migrate_forward,
    model_equals,
)
from evmigrate import codec, commands
from evmigrate import editor as editor_module
from evmigrate.checks import random_model
from evmigrate.commands import have_dog, have_person
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
        original_parse, original_render = Editor._parse, codec._render

        def counting_parse(editor, obj, kind):
            parsed.append(obj.id)
            return original_parse(editor, obj, kind)

        def counting_render(lines, obj, cls):
            rendered.append(obj.id)
            return original_render(lines, obj, cls)

        monkeypatch.setattr(Editor, "_parse", counting_parse)
        monkeypatch.setattr(codec, "_render", counting_render)
        return parsed, rendered

    def test_a_forward_from_canonical_text_validates_and_renders_nothing(self, monkeypatch):
        # m1 is valid by construction, and keep_blocks slices its blocks
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
        # object's chunk is joined again, the other chunks' texts are kept
        s = session_for("dog-no-age")
        migrate_forward(s, decode_model(_bulk_text(2000), s.m1.schema))
        kept = s.m1.model.blocks
        assert len(kept.texts) == 8
        before = dict(kept.texts)
        sliced = []

        class CountingList(list):
            def __getitem__(self, index):
                item = super().__getitem__(index)
                if isinstance(index, slice):
                    sliced.append(len(item))
                return item

        kept.blocks = CountingList(kept.blocks)
        apply_mutations(s.m2.model, "set d7 name Odie\n")
        _, rendered = self._count(monkeypatch)
        text = encode_model(migrate_backward(s))
        assert rendered == ["d7"]
        assert sliced == [codec.CHUNK]
        assert [i for i in kept.texts if kept.texts[i] is not before[i]] == [1007 // codec.CHUNK]
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
        original = commands.run
        monkeypatch.setattr(commands, "run", lambda cmd, editor: runs.append(editor) or original(cmd, editor))
        migrate_forward(s, m1)
        assert runs == [s.m2] * LARGE

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
        owner = MetaClass("Own\ner")
        dog = MetaClass("Dog", [AttributeDef("name", "string")],
                        [ReferenceDef("owner", "Own\ner", False)])
        ed = Editor(MetaModel("pets", [dog, owner]))
        d1 = ed.model.new_object("Dog", "d1")
        ed.model.new_object("Own\ner", "o1")
        ed.model.set_reference(d1, "owner", "o1")
        with pytest.raises(ModelError, match="line break"):
            ed._parse(d1, "HaveDog")  # the owner would need a minted id: "own\ner1"
        assert not ed.store and list(ed.registry) == ["dog1"]
