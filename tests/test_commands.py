import copy
import gc
import pickle

import pytest
from hypothesis import given, strategies as st

from evmigrate import (
    Editor,
    SchemaError,
    copy_model,
    have_dog,
    have_person,
    load_schema,
    model_equals,
)
from evmigrate.commands import SPECS, Command, canonical_order, check_reference_year
from evmigrate.commands import _trusted
from evmigrate.metamodel import LINE_BREAKS

from conftest import count_checked_commands, parsed


class TestCommandInvariants:
    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            have_person("")

    def test_line_break_in_a_wire_field_rejected(self):
        # a value holding one would write a line of its own on the wire
        for brk in LINE_BREAKS:
            with pytest.raises(ValueError, match="no line break"):
                have_person("p1", name=f"a{brk}  - command: HaveDog")
            with pytest.raises(ValueError, match="no line break"):
                have_person(f"p1{brk}")
            with pytest.raises(ValueError, match="no line break"):
                have_dog("d1", owner_id=f"p1{brk}")
        assert have_person("p1", name="a\tb").name == "a\tb"

    def test_owner_only_on_have_dog(self):
        with pytest.raises(ValueError, match="ownerId"):
            Command("HavePerson", "p1", owner_id="x")
        assert have_dog("d1", owner_id="p1").owner_id == "p1"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown command kind"):
            Command("HaveCat", "c1")

    def test_unowned_dog_is_fine(self):
        assert have_dog("d1", name="Rex").owner_id is None


class TestCommandEquals:
    def test_equal_to_itself(self):
        a = have_person("p1", name="Alice", age=23)
        assert a == a

    def test_one_field_differs(self):
        a = have_person("p1", name="Alice", age=23)
        b = have_person("p1", name="Alice", age=24)
        assert a != b

    def test_unset_differs_from_set(self):
        assert have_person("p1") != have_person("p1", age=0)


class TestRunHavePerson:
    def test_ybirth_schema_converts_age(self, ybirth_editor):
        ybirth_editor.execute(have_person("p1", name="Alice", age=23))
        p = ybirth_editor.model.get("p1")
        assert p.attributes == {"name": "Alice", "ybirth": 1997}

    def test_age_schema_stores_age(self, base_editor):
        base_editor.execute(have_person("p1", name="Alice", age=23))
        assert base_editor.model.get("p1").attributes == {"name": "Alice", "age": 23}

    def test_unset_age_leaves_ybirth_unset(self, ybirth_editor):
        ybirth_editor.execute(have_person("p1", name="Alice"))
        assert ybirth_editor.model.get("p1").attributes == {"name": "Alice"}

    def test_schema_without_person_class(self):
        schema = load_schema("class Dog\n  attr name string\n")
        with pytest.raises(SchemaError, match="Person"):
            Editor(schema).execute(have_person("p1", name="Alice"))

    def test_reference_year_is_configurable(self, ybirth_schema):
        ed = Editor(ybirth_schema, reference_year=2000)
        ed.execute(have_person("p1", age=23))
        assert ed.model.get("p1").attributes["ybirth"] == 1977

    def test_bad_reference_year(self, ybirth_schema):
        with pytest.raises(ValueError):
            Editor(ybirth_schema, reference_year=0)
        with pytest.raises(ValueError):
            check_reference_year(-3)


class TestRunHaveDog:
    def test_owner_created_on_the_fly(self, base_editor):
        base_editor.execute(have_dog("d1", owner_id="p1", name="Rex", age=4))
        stub = base_editor.model.get("p1")
        assert stub.class_name == "Person"
        assert stub.attributes == {}  # all UNSET
        dog = base_editor.model.get("d1")
        assert dog.attributes == {"name": "Rex", "age": 4}
        assert dog.references["owner"] == "p1"

    def test_double_execution_changes_nothing(self, base_editor):
        cmd = have_dog("d1", owner_id="p1", name="Rex", age=4)
        base_editor.execute(cmd)
        once = copy_model(base_editor.model)
        once_store = base_editor.store.snapshot()
        base_editor.execute(cmd)
        assert model_equals(base_editor.model, once)
        assert base_editor.store.snapshot() == once_store

    def test_dog_without_age_attribute_skips_age(self, dog_no_age_schema):
        ed = Editor(dog_no_age_schema)
        ed.execute(have_dog("d1", name="Rex", age=4))
        assert ed.model.get("d1").attributes == {"name": "Rex"}

    def test_rehoming_replaces_owner(self, base_editor):
        base_editor.execute(have_person("p1", name="A"))
        base_editor.execute(have_person("p2", name="B"))
        base_editor.execute(have_dog("d1", owner_id="p1", name="Rex"))
        base_editor.execute(have_dog("d1", owner_id="p2", name="Rex"))
        assert base_editor.model.get("d1").references["owner"] == "p2"
        assert base_editor.model.get("p1") is not None  # previous owner survives

    def test_schema_without_dog_class(self):
        schema = load_schema("class Person\n  attr name string\n")
        with pytest.raises(SchemaError, match="Dog"):
            Editor(schema).execute(have_dog("d1"))


class TestGetOrCreateStability:
    def test_many_calls_one_object(self, base_editor):
        objs = {id(base_editor.get_or_create("Person", "p1")) for _ in range(10)}
        assert len(objs) == 1
        assert len(base_editor.model) == 1

    def test_object_count_tracks_distinct_ids(self, base_editor):
        for obj_id in ("p1", "p2", "p1", "p3", "p2"):
            base_editor.get_or_create("Person", obj_id)
        assert len(base_editor.model) == 3


@given(age=st.integers(min_value=0, max_value=150), year=st.sampled_from([2000, 2020, 2024]))
def test_age_ybirth_involution(age, year):
    schema = load_schema("class Person\n  attr name string\n  attr ybirth int\n")
    ed = Editor(schema, reference_year=year)
    ed.execute(have_person("p1", age=age))
    assert ed.model.get("p1").attributes["ybirth"] == year - age
    recovered = parsed(ed, ed.model.get("p1"))
    assert recovered.age == age


_commands = st.builds(
    Command,
    kind=st.sampled_from(list(SPECS)),
    id=st.text(alphabet="pd019_", min_size=1, max_size=4),
)


@given(st.lists(_commands, max_size=30))
def test_canonical_order_is_kind_then_id(cmds):
    rank = {kind: i for i, kind in enumerate(SPECS)}
    before = list(cmds)
    assert canonical_order(cmds) == sorted(cmds, key=lambda c: (rank[c.kind], c.id))
    assert cmds == before  # the input is left as it was


def test_canonical_order_of_a_large_store_runs_no_collection():
    """Sorting builds no per-command key objects, so a store-wide sort
    cannot set off the cyclic collector in the middle of a sync."""
    cmds = [have_dog(f"d{i}", owner_id=f"p{i}") for i in range(10_000, 0, -1)]
    cmds += [have_person(f"p{i}") for i in range(10_000, 0, -1)]
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    ordered = canonical_order(cmds)
    assert gc.get_stats()[0]["collections"] == before
    assert [c.id for c in ordered[:2]] == ["p1", "p10"]


class TestCommandTuple:
    """A command is a tuple of five atoms.  Every public way to build one
    runs ``Command``'s checks; only ``_trusted`` skips them."""

    CMD = have_dog("d1", owner_id="p1", name="Rex", age=4)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_a_pickle_round_trip_runs_the_checks(self, monkeypatch, protocol):
        data = pickle.dumps(self.CMD, protocol)
        built = count_checked_commands(monkeypatch)
        assert pickle.loads(data) == self.CMD
        assert built == [tuple(self.CMD)]

    def test_a_forged_pickle_is_refused(self):
        data = pickle.dumps(self.CMD).replace(b"Rex", b"R\nx")
        with pytest.raises(ValueError, match="no line break"):
            pickle.loads(data)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
    def test_a_copy_runs_the_checks(self, monkeypatch, clone):
        built = count_checked_commands(monkeypatch)
        duplicate = clone(self.CMD)
        assert duplicate == self.CMD and type(duplicate) is Command
        assert built == [tuple(self.CMD)]

    def test_make_and_replace_run_the_checks(self):
        with pytest.raises(ValueError, match="no line break"):
            self.CMD._replace(name="R\nx")
        with pytest.raises(ValueError, match="unknown command kind"):
            Command._make(("HaveCat", "c1", None, None, None))
        assert self.CMD._replace(age=5) == have_dog("d1", owner_id="p1", name="Rex", age=5)

    def test_fields_repr_and_immutability(self):
        assert tuple(self.CMD) == ("HaveDog", "d1", "Rex", 4, "p1")
        assert self.CMD.target_class == "Dog"
        assert repr(have_person("p1")) == (
            "Command(kind='HavePerson', id='p1', name=None, age=None, owner_id=None)"
        )
        with pytest.raises(AttributeError):
            self.CMD.name = "Odie"

    def test_a_stored_command_holds_only_atoms(self):
        # so no command can be part of a reference cycle.  CPython still
        # tracks it: its collector only untracks exact tuples.
        editor = Editor(load_schema("class Dog\n  attr name string\n  attr age int\n"))
        editor.execute(self.CMD)
        stored = editor.store.get("d1")
        assert stored == self.CMD
        referents = [r for r in gc.get_referents(stored) if r is not Command]
        assert {type(r) for r in referents} <= {str, int, type(None)}
        assert len(referents) == 5

    def test_a_plain_tuple_is_not_run(self, base_editor):
        # it compares equal to a command, but never went through the checks
        with pytest.raises(AttributeError):
            base_editor.execute(("HavePerson", "p1", "a\n  - command: HaveDog", None, None))
        assert not base_editor.store and not base_editor.model.objects

    def test_trusted_builds_a_command_without_the_checks(self, monkeypatch):
        built = count_checked_commands(monkeypatch)
        cmd = _trusted(("HaveDog", "d1", "Rex", 4, "p1"))
        assert type(cmd) is Command and cmd == self.CMD and built == []
