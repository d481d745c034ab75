import random

import pytest
from hypothesis import given, settings, strategies as st

from evmigrate import (
    Command,
    DynamicObject,
    Editor,
    EventStore,
    FormatError,
    InstanceModel,
    MergeError,
    ModelError,
    SchemaError,
    copy_model,
    decode_log,
    decode_model,
    encode_log,
    have_dog,
    have_person,
    load_schema,
    model_equals,
)
from evmigrate import commands
from evmigrate.checks import seed_commands
from evmigrate.commands import merge_order

from conftest import data_text, parsed


class TestGetOrCreate:
    def test_same_id_same_object(self, base_editor):
        a = base_editor.get_or_create("Person", "p1")
        b = base_editor.get_or_create("Person", "p1")
        assert a is b
        assert len(base_editor.model) == 1

    def test_created_with_all_attributes_unset(self, base_editor):
        d = base_editor.get_or_create("Dog", "d1")
        assert d.attributes == {}
        assert d.references == {}
        assert d.class_name == "Dog"

    def test_id_cannot_span_classes(self, base_editor):
        base_editor.get_or_create("Person", "p1")
        with pytest.raises(ModelError, match="already belongs"):
            base_editor.get_or_create("Dog", "p1")

    def test_unknown_class(self, base_editor):
        with pytest.raises(SchemaError, match="unknown class"):
            base_editor.get_or_create("Cat", "c1")


class TestExecute:
    def test_stores_command_and_creates_object(self, base_editor):
        cmd = have_person("p1", name="Alice", age=23)
        base_editor.execute(cmd)
        assert base_editor.store.snapshot() == {"p1": cmd}
        assert base_editor.model.get("p1") is not None

    def test_idempotent(self, base_editor):
        cmd = have_person("p1", name="Alice", age=23)
        base_editor.execute(cmd)
        snap_model = copy_model(base_editor.model)
        snap_store = base_editor.store.snapshot()
        base_editor.execute(cmd)
        assert model_equals(base_editor.model, snap_model)
        assert base_editor.store.snapshot() == snap_store

    def test_same_id_replaces_store_entry(self, base_editor):
        c1 = have_person("p1", name="Alice", age=23)
        c2 = have_person("p1", name="Bob", age=30)
        base_editor.execute(c1)
        base_editor.execute(c2)
        assert base_editor.store.snapshot() == {"p1": c2}
        assert base_editor.model.get("p1").attributes == {"name": "Bob", "age": 30}

    def test_failed_run_leaves_store_untouched(self, base_editor):
        base_editor.get_or_create("Person", "x1")
        bad = have_dog("x1", name="Rex")  # id taken by a Person
        with pytest.raises(ModelError):
            base_editor.execute(bad)
        assert base_editor.store.get("x1") is None


class TestConstruction:
    @pytest.mark.parametrize(
        "schema_text, attribute",
        [
            ("class Person\n  attr name int\n", "Person.name"),
            ("class Dog\n  attr age string\n", "Dog.age"),
        ],
        ids=["Person.name", "Dog.age"],
    )
    def test_misdeclared_attribute_kind_rejected(self, schema_text, attribute):
        # rejected when the editor is built, before any command runs
        with pytest.raises(ModelError, match=attribute):
            Editor(load_schema(schema_text))

    def test_schema_resolved_once_and_shared_read_only(self, base_schema):
        first, second = Editor(base_schema), Editor(base_schema)
        assert first.bindings is second.bindings
        with pytest.raises(TypeError):
            first.bindings["HavePerson"] = None
        bad = load_schema("class Person\n  attr name int\n")
        for _ in range(2):  # a rejected schema is not remembered as bound
            with pytest.raises(ModelError, match="Person.name"):
                Editor(bad)


class TestMergeAll:
    def test_empty_merge_is_noop(self, base_editor):
        base_editor.execute(have_person("p1", name="A"))
        model = copy_model(base_editor.model)
        store = base_editor.store.snapshot()
        base_editor.merge_all([])
        assert model_equals(base_editor.model, model)
        assert base_editor.store.snapshot() == store

    def test_self_merge_is_fixpoint(self, base_schema):
        rng = random.Random(7)
        ed = Editor(base_schema)
        for cmd in seed_commands(rng):
            ed.execute(cmd)
        model = copy_model(ed.model)
        store = ed.store.snapshot()
        ed.merge_all(ed.store.commands())
        assert model_equals(ed.model, model)
        assert ed.store.snapshot() == store

    def test_dog_before_owner_and_reverse_agree(self, base_schema):
        cmds = [have_dog("d1", owner_id="p1", name="Rex"), have_person("p1", name="Alice")]
        a = Editor(base_schema)
        a.merge_all(cmds)
        b = Editor(base_schema)
        b.merge_all(list(reversed(cmds)))
        assert model_equals(a.model, b.model)
        assert a.store == b.store

    def test_merge_error_identifies_command(self):
        schema = load_schema("class Person\n  attr name string\n")
        ed = Editor(schema)
        bad = have_dog("d1", name="Rex")
        with pytest.raises(MergeError, match="d1") as exc:
            ed.merge_all([have_person("p1", name="A"), bad])
        assert exc.value.command == bad


    def test_an_empty_owner_id_makes_no_stub(self):
        # an empty ownerId is refused where its command is built, so no
        # merge can see one; the line reader reads "    ownerId:" as empty
        text = "format: 1\nreferenceYear: 2020\ncommands:\n  - command: HaveDog\n    id: d1\n    ownerId:\n"
        with pytest.raises(ValueError, match="non-empty"):
            have_dog("d1", "")
        with pytest.raises(FormatError, match="line 4: .*non-empty"):
            decode_log(text)


class TestIdFor:
    def test_fresh_person_gets_person1(self, base_editor):
        # object placed in the model directly: registered under no id yet
        obj = base_editor.model.new_object("Person", "temp-x")
        assert base_editor.id_for(obj) == "person1"

    def test_counter_increments_per_class(self, base_editor):
        a = base_editor.model.new_object("Person", "temp-a")
        b = base_editor.model.new_object("Person", "temp-b")
        d = base_editor.model.new_object("Dog", "temp-d")
        assert base_editor.id_for(a) == "person1"
        assert base_editor.id_for(b) == "person2"
        assert base_editor.id_for(d) == "dog1"

    def test_second_call_returns_same_id(self, base_editor):
        obj = base_editor.model.new_object("Person", "temp-x")
        first = base_editor.id_for(obj)
        assert base_editor.id_for(obj) == first

    def test_registered_object_keeps_its_id(self, base_editor):
        obj = base_editor.get_or_create("Person", "p7")
        assert base_editor.id_for(obj) == "p7"

    def test_fresh_ids_skip_taken_ones(self, base_editor):
        base_editor.get_or_create("Person", "person1")
        obj = base_editor.model.new_object("Person", "temp-x")
        assert base_editor.id_for(obj) == "person2"

    def test_foreign_object_rejected(self, base_editor, base_schema):
        other = InstanceModel(base_schema)
        obj = other.new_object("Person", "p1")
        with pytest.raises(ModelError, match="does not belong"):
            base_editor.id_for(obj)


class TestParseModel:
    def test_empty_model(self, base_editor):
        assert list(base_editor.parse_model()) == []

    def test_single_person_gets_generated_id(self, base_editor):
        obj = base_editor.model.new_object("Person", "loaded-0")
        base_editor.model.set_attribute(obj, "name", "Alice")
        base_editor.model.set_attribute(obj, "age", 23)
        assert list(base_editor.parse_model()) == [have_person("person1", name="Alice", age=23)]

    def test_adopted_ids_survive_parse(self, base_editor, base_schema):
        model = decode_model(data_text("pets.inst"), base_schema)
        base_editor.adopt_model(model)
        assert base_editor.parse_model().commands() == [
            have_person("p1", name="Alice", age=23),
            have_dog("d1", owner_id="p1", name="Rex", age=4),
        ]

    def test_parse_twice_is_stable(self, base_editor, base_schema):
        base_editor.adopt_model(decode_model(data_text("pets.inst"), base_schema))
        first = base_editor.parse_model().snapshot()
        second = base_editor.parse_model().snapshot()
        assert first == second
        assert sorted(first) == ["d1", "p1"]

    def test_unchanged_objects_are_neither_run_nor_put(
        self, base_editor, base_schema, monkeypatch
    ):
        base_editor.adopt_model(decode_model(data_text("pets.inst"), base_schema))
        base_editor.parse_model()
        base_editor.store.mark_shipped()
        person = base_editor.store._entries["p1"]
        runs = []
        original = commands.run
        monkeypatch.setattr(commands, "run", lambda cmd, ed: runs.append(cmd) or original(cmd, ed))
        base_editor.model.set_attribute(base_editor.model.get("d1"), "name", "Odie")
        cmds = base_editor.parse_model()
        renamed = have_dog("d1", owner_id="p1", name="Odie", age=4)
        assert runs == []  # it would write back what it was read from
        assert base_editor.store.unshipped().snapshot() == {"d1": renamed}
        assert base_editor.store._entries["p1"] is person  # the entry itself, not put again
        assert cmds.commands() == [person, renamed]  # still the whole store

    def test_object_put_in_past_add_is_refused(self, base_editor, base_schema):
        base_editor.adopt_model(decode_model(data_text("pets.inst"), base_schema))
        base_editor.parse_model()
        with pytest.raises(TypeError):
            base_editor.model.objects["x"] = DynamicObject("x", "Person")
        base_editor.model.add(DynamicObject("x", "Person"))  # the way in
        assert have_person("person1") in base_editor.parse_model()

    def test_no_object_of_an_undeclared_command_class_reaches_a_parse(self):
        ed = Editor(load_schema("class Person\n  attr name string\n"))
        with pytest.raises(TypeError):
            ed.model.objects["d1"] = DynamicObject("d1", "Dog")
        with pytest.raises(SchemaError, match="unknown class 'Dog'"):
            ed.model.add(DynamicObject("d1", "Dog"))
        assert len(ed.parse_model()) == 0

    def test_unknown_class_rejected(self):
        schema = load_schema(
            "class Person\n  attr name string\nclass Cat\n  attr name string\n"
        )
        ed = Editor(schema)
        ed.model.new_object("Cat", "c1")
        with pytest.raises(ModelError, match="Cat"):
            ed.parse_model()


class TestParsePerson:
    def test_ybirth_branch(self, ybirth_editor):
        p = ybirth_editor.get_or_create("Person", "p1")
        ybirth_editor.model.set_attribute(p, "ybirth", 1997)
        cmd = parsed(ybirth_editor, p)
        assert cmd.age == 23

    def test_age_branch(self, base_editor):
        p = base_editor.get_or_create("Person", "p1")
        base_editor.model.set_attribute(p, "age", 23)
        assert parsed(base_editor, p).age == 23

    def test_stub_parses_to_all_unset(self, base_editor):
        p = base_editor.get_or_create("Person", "p1")
        cmd = parsed(base_editor, p)
        assert cmd == have_person("p1")


class TestParseDog:
    def test_age_recovered_from_old_command(self, dog_no_age_schema):
        ed = Editor(dog_no_age_schema)
        ed.execute(have_dog("d1", name="Rex", age=4))  # as arrived from the source side
        dog = ed.model.get("d1")
        assert "age" not in dog.attributes  # schema cannot hold it
        cmd = parsed(ed, dog)
        assert cmd.age == 4

    def test_fresh_dog_without_old_command(self, dog_no_age_schema):
        ed = Editor(dog_no_age_schema)
        dog = ed.model.new_object("Dog", "temp")
        ed.model.set_attribute(dog, "name", "Fifi")
        cmd = parsed(ed, dog)
        assert cmd.age is None
        assert cmd.name == "Fifi"

    def test_direct_read_when_schema_has_age(self, base_editor):
        ed = base_editor
        ed.execute(have_dog("d1", name="Rex", age=4))
        assert parsed(ed, ed.model.get("d1")).age == 4

    def test_declared_but_unset_age_is_not_recovered(self, base_editor, base_schema):
        # recovery applies only when the schema lacks the attribute
        model = InstanceModel(base_schema)
        dog = model.new_object("Dog", "d1")
        model.set_attribute(dog, "name", "Rex")
        with pytest.raises(TypeError):
            del dog.attributes["name"]  # no clear goes past the model
        base_editor.adopt_model(model)
        base_editor.store.put(have_dog("d1", name="Rex", age=4))  # a stored age the model lacks
        assert parsed(base_editor, dog).age is None

    def test_owner_id_from_reference(self, base_editor):
        base_editor.execute(have_person("p1", name="A"))
        base_editor.execute(have_dog("d1", owner_id="p1", name="Rex"))
        cmd = parsed(base_editor, base_editor.model.get("d1"))
        assert cmd.owner_id == "p1"


MANY_OWNER_SCHEMA_TEXT = """\
class Person
  attr name string
class Dog
  attr name string
  ref owner -> Person many
"""


def many_owner_editor(owners) -> Editor:
    schema = load_schema(MANY_OWNER_SCHEMA_TEXT)
    model = InstanceModel(schema)
    model.new_object("Person", "p1")
    model.new_object("Person", "p2")
    dog = model.new_object("Dog", "d1")
    for owner in owners:
        model.set_reference(dog, "owner", owner)
    ed = Editor(schema)
    ed.adopt_model(model)
    return ed


class TestParseManyOwner:
    """HaveDog carries one ownerId; a many-valued owner reference fits it
    only with at most one target."""

    def test_no_owner_ships_no_owner_id(self):
        ed = many_owner_editor([])
        ed.parse_model()
        assert ed.store.get("d1") == have_dog("d1")

    def test_one_owner_ships_its_id(self):
        ed = many_owner_editor(["p2"])
        ed.parse_model()
        assert ed.store.get("d1") == have_dog("d1", owner_id="p2")

    def test_two_owners_rejected_naming_the_object(self):
        ed = many_owner_editor(["p1", "p2"])
        with pytest.raises(ModelError, match="'d1' has 2 owners"):
            ed.parse_model()


class TestUnshippedEntries:
    def test_put_marks_entries_unshipped_until_shipped(self):
        store = EventStore()
        store.put(have_person("p1", name="A"))
        store.put(have_dog("d1", age=4))
        assert store.unshipped() == store
        store.mark_shipped()
        assert len(store.unshipped()) == 0
        store.put(have_person("p1", name="B"))
        assert store.unshipped().snapshot() == {"p1": have_person("p1", name="B")}
        assert len(store) == 2

    def test_entry_from_the_peer_replaces_an_unshipped_one(self):
        store = EventStore()
        store.put(have_person("p1", name="A"))
        store.put_received(have_person("p1", name="B"))
        assert len(store.unshipped()) == 0
        assert store.get("p1") == have_person("p1", name="B")

    def test_mark_unshipped_covers_every_entry(self):
        store = EventStore()
        store.put_received(have_person("p1"))
        store.put_received(have_dog("d1"))
        assert len(store.unshipped()) == 0
        store.mark_unshipped()
        assert store.unshipped() == store
        assert store.unshipped().commands() == store.commands()

    def test_merged_commands_are_shipped_executed_ones_are_not(self, base_editor):
        base_editor.merge_all([have_person("p1", name="A"), have_dog("d1")])
        base_editor.execute(have_dog("d2", owner_id="p1"))
        assert base_editor.store.unshipped().snapshot() == {"d2": have_dog("d2", owner_id="p1")}


class TestStoreModelCoherence:
    def test_replay_reproduces_model_with_full_command_sets(self, base_schema):
        rng = random.Random(11)
        for _ in range(25):
            ed = Editor(base_schema)
            for cmd in seed_commands(rng):
                ed.execute(cmd)
            replayed = Editor(base_schema)
            replayed.merge_all(ed.store.commands())
            assert model_equals(ed.model, replayed.model)
            assert ed.store == replayed.store

    def test_orphaned_stub_breaks_replay(self, base_schema):
        # documented boundary: a stub whose id never got its own command
        ed = Editor(base_schema)
        ed.execute(have_dog("d1", owner_id="px", name="Rex"))
        ed.execute(have_dog("d1", owner_id="py", name="Rex"))
        replayed = Editor(base_schema)
        replayed.merge_all(ed.store.commands())
        assert not model_equals(ed.model, replayed.model)  # px stub is lost


class TestAdoptModel:
    def test_adoption_validates_against_editor_schema(self, base_editor, ybirth_schema):
        foreign = InstanceModel(ybirth_schema)
        p = foreign.new_object("Person", "p1")
        foreign.set_attribute(p, "ybirth", 1997)
        with pytest.raises(ModelError):
            base_editor.adopt_model(foreign)

    def test_failed_adoption_leaves_the_model_as_it_was(self, base_editor, ybirth_schema):
        foreign = InstanceModel(ybirth_schema)
        foreign.set_attribute(foreign.new_object("Person", "p1"), "ybirth", 1997)
        with pytest.raises(ModelError):
            base_editor.adopt_model(foreign)
        assert foreign.schema is ybirth_schema and base_editor.model is not foreign

    def test_a_tracking_model_binds_what_the_new_schema_declares(self, base_schema, pets_schema):
        # adopted across schemas, a model is validated against the new one,
        # every reader reads every object again, and the new schema's
        # references are written through its setter and seen
        model = decode_model(data_text("pets.inst"), base_schema)
        model.seen("reader")
        Editor(pets_schema).adopt_model(model)
        assert list(model.unseen("reader")) == list(model.objects.values())
        model.seen("reader")
        p1 = model.get("p1")
        with pytest.raises(TypeError):
            p1.references["dogs"] = ("d1",)
        model.set_reference(p1, "dogs", "d1")
        assert list(model.unseen("reader")) == [p1] and p1.references == {"dogs": ("d1",)}

    def test_adoption_resets_prior_state(self, base_editor, base_schema):
        base_editor.execute(have_person("old", name="Zoe"))
        base_editor.adopt_model(decode_model(data_text("pets.inst"), base_schema))
        assert len(base_editor.store) == 0
        assert base_editor.model.get("old") is None
        for obj_id in ("p1", "d1"):
            obj = base_editor.model.get(obj_id)
            assert base_editor.get_or_create(obj.class_name, obj_id) is obj
            assert base_editor.id_for(obj) == obj_id


#: ids a differential run draws from: model keys, and ids the editor mints
ID_POOL = ("p1", "p2", "d1", "d2", "person1", "person2", "dog1", "dog2")


class ReferenceRegistry:
    """An editor's registered ids kept as a full map, as the editor kept
    them when it copied its model's: every object under its key at
    adoption, every object a merge creates (runners and owner stubs) under
    its key, and each object ``add`` took in from outside under the id
    ``id_for`` mints for it, and under no other."""

    def __init__(self, model):
        self.model = model
        self.ids = dict(model.objects)  # registered id -> object
        self.minted = {}  # object -> its minted id
        self.counters = {}

    def id_for(self, obj):
        if obj in self.minted:
            return self.minted[obj]
        if self.ids.get(obj.id) is obj:
            return obj.id
        counter = self.counters.get(obj.class_name, 1)
        while (fresh := f"{obj.class_name.lower()}{counter}") in self.ids or fresh in self.model.objects:
            counter += 1
        self.counters[obj.class_name] = counter + 1
        self.ids[fresh] = obj
        self.minted[obj] = fresh
        return fresh

    def first_refused(self, ordered):
        """The first command of a merge in ``ordered`` that the editor
        refuses, or None: one naming a registered id of another class, or
        a model key no id is registered under (``add`` took it)."""
        made = {}  # id -> class of the objects the merge creates
        for cmd in ordered:
            for obj_id, class_name in ((cmd.id, cmd.target_class), (cmd.owner_id, "Person")):
                if obj_id is None:
                    continue
                obj = self.ids.get(obj_id)
                have = made.get(obj_id) if obj is None else obj.class_name
                if have is None and obj_id in self.model.objects or have not in (None, class_name):
                    return cmd
                made[obj_id] = class_name
        return None

    def log(self):
        """The log of the store a parse leaves: one command per object,
        under its registered id, naming its owner by its registered id."""
        store = EventStore()
        for obj in self.model.objects.values():
            owner = obj.references.get("owner")
            kind = "HaveDog" if obj.class_name == "Dog" else "HavePerson"
            store.put(Command(kind, self.id_for(obj), obj.attributes.get("name"), obj.attributes.get("age"),
                              None if owner is None else self.id_for(self.model.objects[owner])))
        return encode_log(store, 2020)


def _agree(editor, ref):
    """``get_or_create`` and ``id_for`` answer as the reference does."""
    objects = editor.model.objects
    for obj_id, obj in ref.ids.items():
        assert editor.get_or_create(obj.class_name, obj_id) is obj
    for obj_id in objects.keys() - ref.ids.keys():  # a key ``add`` took is registered to nobody
        with pytest.raises(ModelError, match="duplicate object id"):
            editor.get_or_create(objects[obj_id].class_name, obj_id)
    for obj in objects.values():
        if obj in ref.minted or ref.ids.get(obj.id) is obj:  # asking any other would mint
            assert editor.id_for(obj) == ref.id_for(obj)


def _model_of(data, schema):
    model = InstanceModel(schema)
    for obj_id in data.draw(st.lists(st.sampled_from(ID_POOL), unique=True, max_size=4)):
        obj = model.new_object(data.draw(st.sampled_from(["Person", "Dog"])), obj_id)
        model.set_attribute(obj, "name", obj_id.upper())
    return model


class TestRegisteredIdsWithoutACopy:
    """An editor keeps no copy of its model's id map, only the ids it
    minted: it answers and ships as an editor that kept the full map."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_lookups_and_the_shipped_log_agree_with_a_full_map(self, data):
        schema = load_schema(data_text("base.schema"), name="base")
        editor = Editor(schema)
        ref = ReferenceRegistry(editor.model)
        for step in data.draw(st.lists(st.sampled_from(["adopt", "merge", "new", "parse"]), max_size=10)):
            objects = editor.model.objects
            if step == "adopt":
                editor.adopt_model(_model_of(data, schema))
                ref = ReferenceRegistry(editor.model)
            elif step == "merge":
                ids = data.draw(st.lists(st.sampled_from(ID_POOL), unique=True, min_size=1, max_size=4))
                cmds = [have_person(obj_id, name="N") if data.draw(st.booleans()) else
                        have_dog(obj_id, data.draw(st.sampled_from((None, *ID_POOL))), age=3) for obj_id in ids]
                before, refused = set(objects), ref.first_refused(merge_order(cmds))
                try:
                    editor.merge_all(cmds)
                    assert refused is None
                except MergeError as e:
                    assert e.command == refused
                ref.ids.update((obj_id, objects[obj_id]) for obj_id in objects.keys() - before)
            elif step == "new":
                class_name, obj_id = data.draw(st.sampled_from(["Person", "Dog"])), data.draw(st.sampled_from(ID_POOL))
                if obj_id in objects:
                    with pytest.raises(ModelError, match="duplicate object id"):
                        editor.model.new_object(class_name, obj_id)
                else:
                    obj = editor.model.new_object(class_name, obj_id)
                    persons = [o.id for o in objects.values() if o.class_name == "Person"]
                    if class_name == "Dog" and persons:
                        editor.model.set_reference(obj, "owner", data.draw(st.sampled_from(persons)))
            else:
                editor.parse_model()
                for class_name in ("Person", "Dog"):  # a parse mints persons first, in model order
                    for obj in [o for o in objects.values() if o.class_name == class_name]:
                        ref.id_for(obj)
                assert encode_log(editor.store, 2020) == ref.log()
            _agree(editor, ref)
