import copy
import gc
import pickle
import sys
from collections.abc import Mapping

import pytest
from hypothesis import given, strategies as st

from evmigrate import (
    DynamicObject,
    InstanceModel,
    ModelError,
    SchemaError,
    copy_model,
    load_schema,
    model_equals,
)
from evmigrate import decode_model, metamodel
from evmigrate.commands import have_dog
from evmigrate.metamodel import LINE_BREAKS

from conftest import PETS_SCHEMA_TEXT, patch_builds


class TestLoadSchema:
    def test_single_class_two_attributes(self):
        m = load_schema("class Person\n  attr name string\n  attr age int\n")
        assert list(m.classes) == ["Person"]
        assert list(m.cls("Person").attributes) == ["name", "age"]
        assert m.cls("Person").attributes["age"].kind == "int"

    def test_reference_resolves_to_declared_class(self, pets_schema):
        ref = pets_schema.cls("Dog").references["owner"]
        assert ref.target == "Person"
        assert not ref.many
        assert pets_schema.cls("Person").references["dogs"].many

    def test_unresolved_reference_target(self):
        text = "class Dog\n  attr name string\n  ref owner -> Cat one\n"
        with pytest.raises(SchemaError, match="Cat"):
            load_schema(text)

    def test_duplicate_class_name(self):
        with pytest.raises(SchemaError, match="duplicate class"):
            load_schema("class Person\nclass Person\n")

    def test_duplicate_feature_name(self):
        with pytest.raises(SchemaError, match="duplicate feature"):
            load_schema("class Person\n  attr name string\n  attr name int\n")

    def test_attribute_and_reference_share_namespace(self):
        text = "class Person\n  attr pal string\n  ref pal -> Person one\n"
        with pytest.raises(SchemaError, match="duplicate feature"):
            load_schema(text)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(SchemaError) as exc:
            load_schema("class Person\n  attr name string\n  attr age float\n")
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    @pytest.mark.parametrize(
        "text, match, line",
        [
            ("class Dog\n  attr name string\n  ref owner -> Cat one\n", "undeclared class 'Cat'", 3),
            ("class Person\n  ref dogs -> Dog many\n\nclass Dog\n  ref vet -> Vet one\n", "Vet", 5),
            ("# people\nclass Person\n\nclass Person\n", "duplicate class", 4),
            ("class Person\n  attr pal string\n  ref pal -> Person one\n", "duplicate feature", 3),
            ("class Person\n  ref pal -> Person some\n", "multiplicity", 2),
        ],
        ids=["undeclared-target", "undeclared-target-after-forward-ref", "duplicate-class",
             "duplicate-feature", "bad-multiplicity"],
    )
    def test_semantic_error_carries_line_number(self, text, match, line):
        with pytest.raises(SchemaError, match=match) as exc:
            load_schema(text)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")

    def test_bad_indentation_rejected(self):
        with pytest.raises(SchemaError, match="two spaces"):
            load_schema("class Person\n   attr name string\n")

    def test_comments_and_blank_lines_ignored(self):
        m = load_schema("# header\n\nclass Person\n  # inner\n  attr name string\n")
        assert "name" in m.cls("Person").attributes

    def test_feature_before_class(self):
        with pytest.raises(SchemaError, match="before any class"):
            load_schema("  attr name string\n")


class TestHasAttribute:
    def test_ybirth_variant_declares_ybirth(self, ybirth_schema):
        assert "ybirth" in ybirth_schema.cls("Person").attributes

    def test_base_variant_has_no_ybirth(self, base_schema):
        assert "ybirth" not in base_schema.cls("Person").attributes

    def test_name_present_in_every_variant(self, base_schema, ybirth_schema, dog_no_age_schema):
        for schema in (base_schema, ybirth_schema, dog_no_age_schema):
            assert "name" in schema.cls("Person").attributes

    def test_unknown_class(self, base_schema):
        with pytest.raises(SchemaError, match="unknown class"):
            base_schema.cls("Cat")


class TestAttributes:
    def test_set_then_get(self, base_schema):
        model = InstanceModel(base_schema)
        p = model.new_object("Person", "p1")
        model.set_attribute(p, "name", "Alice")
        assert p.attributes.get("name") == "Alice"

    def test_last_write_wins(self, base_schema):
        model = InstanceModel(base_schema)
        p = model.new_object("Person", "p1")
        model.set_attribute(p, "age", 5)
        model.set_attribute(p, "age", 7)
        assert p.attributes.get("age") == 7

    def test_undeclared_attribute_rejected(self, base_schema):
        model = InstanceModel(base_schema)
        p = model.new_object("Person", "p1")
        with pytest.raises(ModelError, match="ybirth"):
            model.set_attribute(p, "ybirth", 1997)

    def test_unset_reads_as_none(self, base_schema):
        model = InstanceModel(base_schema)
        p = model.new_object("Person", "p1")
        assert p.attributes.get("age") is None

    def test_kind_mismatch(self, base_schema):
        model = InstanceModel(base_schema)
        p = model.new_object("Person", "p1")
        with pytest.raises(ModelError, match="expects an int"):
            model.set_attribute(p, "age", "old")
        with pytest.raises(ModelError, match="expects a string"):
            model.set_attribute(p, "name", 5)

    def test_bool_is_not_an_int(self, base_schema):
        model = InstanceModel(base_schema)
        p = model.new_object("Person", "p1")
        with pytest.raises(ModelError):
            model.set_attribute(p, "age", True)

    def test_line_break_rejected_by_setter_validate_and_ids(self, base_schema):
        # every file format is line-based: a line break would forge a line
        for brk in LINE_BREAKS:
            model = InstanceModel(base_schema)
            p = model.new_object("Person", "p1")
            with pytest.raises(ModelError, match="line break"):
                model.set_attribute(p, "name", f"x{brk}obj evil Person")
            assert p.attributes == {}
            with pytest.raises(TypeError):
                p.attributes["name"] = f"x{brk}obj evil Person"  # past the setter
            with pytest.raises(ModelError, match="line break"):  # add checks as validate
                model.add(DynamicObject("p3", "Person", {"name": f"x{brk}obj evil Person"}))
            assert p.attributes == {} and model.get("p3") is None
            with pytest.raises(ModelError, match="line break"):
                model.new_object("Person", f"p2{brk}")
        model.set_attribute(p, "name", "tab\tand \x00 are kept")
        model.validate()

    @pytest.mark.parametrize("obj_id", ["", "a\nb", "a\u2028b", "a b", " a", "a\t", "a\xa0b", "a\x1fb"])
    def test_add_refuses_the_id(self, base_schema, obj_id):
        # the one check of an id: no object can enter past it, or change
        # id; it is one token, as the instance file reads it
        model = InstanceModel(base_schema)
        with pytest.raises(ModelError, match="non-empty and hold no line break"):
            model.add(DynamicObject(obj_id, "Person"))
        with pytest.raises(ModelError, match="non-empty and hold no line break"):
            model.new_object("Person", obj_id)
        assert len(model) == 0

    def test_line_breaks_are_what_splitlines_breaks_at(self):
        breaks = {c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) == 2}
        assert breaks == set(LINE_BREAKS)
        assert not any(c.isprintable() for c in LINE_BREAKS)  # has_line_break's shortcut

    def test_set_from_text(self, base_schema):
        model = InstanceModel(base_schema)
        p = model.new_object("Person", "p1")
        model.set_attribute_text(p, "age", "-7")
        model.set_attribute_text(p, "name", "42")
        assert p.attributes == {"age": -7, "name": "42"}
        with pytest.raises(ModelError, match="expects an integer, got 'O7'"):
            model.set_attribute_text(p, "age", "O7")
        with pytest.raises(ModelError, match="no attribute 'dogs'"):
            model.set_attribute_text(p, "dogs", "d1")
        assert p.attributes == {"age": -7, "name": "42"}


class TestReferences:
    def test_one_multiplicity_replaces(self, pets_schema):
        model = InstanceModel(pets_schema)
        model.new_object("Person", "p1")
        model.new_object("Person", "p2")
        d = model.new_object("Dog", "d1")
        model.set_reference(d, "owner", "p1")
        model.set_reference(d, "owner", "p2")
        assert d.references.get("owner") == "p2"

    def test_many_has_set_semantics(self, pets_schema):
        model = InstanceModel(pets_schema)
        p = model.new_object("Person", "p1")
        model.new_object("Dog", "d1")
        model.set_reference(p, "dogs", "d1")
        model.set_reference(p, "dogs", "d1")
        assert p.references.get("dogs") == ("d1",)

    def test_add_links_each_reference_to_its_targets_own_id(self, pets_schema):
        # the caller's id strings are not kept: each reference holds its
        # target's own id string, as set_reference and the readers link it
        model = InstanceModel(pets_schema)
        p = model.new_object("Person", "p1")
        d1, d2 = model.new_object("Dog", "d1"), model.new_object("Dog", "d2")
        d = model.add(DynamicObject("d3", "Dog", references={"owner": "".join(["p", "1"])}))
        assert d.references["owner"] == "p1" and d.references["owner"] is p.id
        dogs = ["".join(["d", "2"]), "".join(["d", "1"])]  # equal strings, not the objects' own
        q = model.add(DynamicObject("p2", "Person", references={"dogs": dogs}))
        assert q.references["dogs"] == ("d2", "d1")
        assert [t is o.id for t, o in zip(q.references["dogs"], (d2, d1))] == [True, True]
        own = InstanceModel(load_schema("class Node\n  ref next -> Node one\n"))
        node = own.add(DynamicObject("".join(["n", "1"]), "Node", references={"next": "".join(["n", "1"])}))
        assert node.references["next"] is node.id  # its own target

    def test_undeclared_reference(self, pets_schema):
        model = InstanceModel(pets_schema)
        p = model.new_object("Person", "p1")
        with pytest.raises(ModelError, match="no reference"):
            model.set_reference(p, "cats", "d1")

    # no write leaves a target to a later validate: the setter and add
    # refuse it with validate's error, and the model stays valid

    def test_validate_rejects_dangling_target(self, pets_schema):
        model = InstanceModel(pets_schema)
        d = model.new_object("Dog", "d1")
        with pytest.raises(ModelError, match="'ghost' \\(it does not exist\\)"):
            model.set_reference(d, "owner", "ghost")
        with pytest.raises(ModelError, match="does not exist"):
            model.add(DynamicObject("d2", "Dog", references={"owner": "ghost"}))
        assert d.references == {} and len(model) == 1
        model.validate()

    def test_validate_rejects_wrong_target_class(self, pets_schema):
        model = InstanceModel(pets_schema)
        d = model.new_object("Dog", "d1")
        model.new_object("Dog", "d2")
        with pytest.raises(ModelError, match="expected Person"):
            model.set_reference(d, "owner", "d2")
        with pytest.raises(ModelError, match="expected Person"):
            model.add(DynamicObject("d3", "Dog", references={"owner": "d2"}))
        with pytest.raises(ModelError, match="expects a tuple of distinct ids"):
            model.add(DynamicObject("p1", "Person", references={"dogs": "d1"}))
        with pytest.raises(ModelError, match="expects a tuple of distinct ids"):
            model.add(DynamicObject("p1", "Person", references={"dogs": ["d1", "d1"]}))
        assert d.references == {} and len(model) == 2
        model.validate()

    def test_duplicate_object_id(self, base_schema):
        model = InstanceModel(base_schema)
        model.new_object("Person", "p1")
        with pytest.raises(ModelError, match="duplicate"):
            model.new_object("Dog", "p1")


def _pets_pair(schema):
    model = InstanceModel(schema)
    p = model.new_object("Person", "p1")
    model.set_attribute(p, "name", "Alice")
    model.set_attribute(p, "age", 23)
    d = model.new_object("Dog", "d1")
    model.set_attribute(d, "name", "Rex")
    model.set_reference(d, "owner", "p1")
    return model


class TestModelEquals:
    def test_reflexive(self, base_schema):
        m = _pets_pair(base_schema)
        assert model_equals(m, m)

    def test_insertion_order_irrelevant(self, base_schema):
        a = _pets_pair(base_schema)
        b = InstanceModel(base_schema)
        d = b.new_object("Dog", "d1")
        b.set_attribute(d, "name", "Rex")
        p = b.new_object("Person", "p1")
        b.set_attribute(p, "name", "Alice")
        b.set_attribute(p, "age", 23)
        b.set_reference(d, "owner", "p1")
        assert model_equals(a, b)
        assert model_equals(b, a)

    def test_one_value_differs(self, base_schema):
        a = _pets_pair(base_schema)
        b = _pets_pair(base_schema)
        b.set_attribute(b.get("p1"), "age", 24)
        assert not model_equals(a, b)

    def test_unset_differs_from_default_like_values(self, base_schema):
        a = InstanceModel(base_schema)
        a.new_object("Person", "p1")
        b = InstanceModel(base_schema)
        b.set_attribute(b.new_object("Person", "p1"), "age", 0)
        assert not model_equals(a, b)
        c = InstanceModel(base_schema)
        c.set_attribute(c.new_object("Person", "p1"), "name", "")
        assert not model_equals(a, c)

    def test_many_reference_order_irrelevant(self, pets_schema):
        def build(order):
            m = InstanceModel(pets_schema)
            p = m.new_object("Person", "p1")
            m.new_object("Dog", "d1")
            m.new_object("Dog", "d2")
            for dog in order:
                m.set_reference(p, "dogs", dog)
            return m

        assert model_equals(build(["d1", "d2"]), build(["d2", "d1"]))

    def test_different_id_sets(self, base_schema):
        a = _pets_pair(base_schema)
        b = copy_model(a)
        b.new_object("Person", "p2")
        assert not model_equals(a, b)


class TestCopyModel:
    def test_copy_is_equal_but_independent(self, base_schema):
        a = _pets_pair(base_schema)
        b = copy_model(a)
        assert model_equals(a, b)
        b.set_attribute(b.get("p1"), "age", 99)
        assert a.get("p1").attributes["age"] == 23
        assert not model_equals(a, b)


#: each mutator of a dict, as a write straight into an object's attributes,
#: and the setter call that makes the same edit where the model has one
_WRITES = {
    "__setitem__": (lambda values: values.__setitem__("name", "Bob"), ("name", "Bob")),
    "__delitem__": (lambda values: values.__delitem__("age"), None),
    "pop": (lambda values: values.pop("age"), None),
    "popitem": (lambda values: values.popitem(), None),
    "setdefault": (lambda values: values.setdefault("name", "B"), ("name", "B")),
    "update": (lambda values: values.update(name="Bob"), ("name", "Bob")),
    "clear": (lambda values: values.clear(), None),
    "__ior__": (lambda values: values.__ior__({"name": "Bob"}), ("name", "Bob")),
}


class TestWriteTracking:
    """Every write goes through the model, which marks what it writes;
    a write straight into an object's mappings is refused."""

    def _read_model(self, schema):
        model = _pets_pair(schema)
        assert model.unseen("reader") is None  # never read: every object is unseen
        model.seen("reader")
        assert model.unseen("reader") == {}
        return model

    @pytest.mark.parametrize("mutator", sorted(_WRITES))
    def test_every_mutator_marks_its_object(self, base_schema, mutator):
        # refused, so it cannot go unseen; the setter's edit is seen
        model = self._read_model(base_schema)
        p1 = model.get("p1")
        write, edit = _WRITES[mutator]
        with pytest.raises((TypeError, AttributeError)):
            write(p1.attributes)
        assert p1.attributes == {"name": "Alice", "age": 23} and model.unseen("reader") == {}
        model.set_attribute(p1, *(edit or ("age", 23)))
        assert list(model.unseen("reader")) == [p1]
        assert p1.attributes["name"] == (edit[1] if edit else "Alice")

    @pytest.mark.parametrize("mutator", sorted(_WRITES))
    def test_reference_writes_mark_too(self, base_schema, mutator):
        model = self._read_model(base_schema)
        d1 = model.get("d1")
        with pytest.raises((TypeError, AttributeError)):
            _WRITES[mutator][0](d1.references)
        assert d1.references == {"owner": "p1"} and model.unseen("reader") == {}
        model.new_object("Person", "p2")
        model.seen("reader")
        model.set_reference(d1, "owner", "p2")
        assert list(model.unseen("reader")) == [d1] and d1.references == {"owner": "p2"}

    def test_readers_keep_their_own_place(self, base_schema):
        model = self._read_model(base_schema)
        model.seen("other")
        model.set_attribute(model.get("d1"), "name", "Odie")
        model.seen("reader")
        model.set_attribute(model.get("p1"), "age", 30)
        model.new_object("Dog", "d2")
        assert list(model.unseen("reader")) == [model.get("p1"), model.get("d2")]
        assert list(model.unseen("other")) == [model.get("d1"), model.get("p1"), model.get("d2")]

    def test_objects_first_marked_come_first(self, base_schema):
        model = self._read_model(base_schema)
        model.set_attribute(model.get("d1"), "name", "Odie")
        model.set_attribute_text(model.get("p1"), "name", "Bob")
        model.set_attribute(model.get("d1"), "age", 5)
        assert list(model.unseen("reader")) == [model.get("d1"), model.get("p1")]

    def test_mappings_cannot_be_rebound(self, base_schema):
        # so no writable dict can be put on an object, where writes go unseen
        model = self._read_model(base_schema)
        p1 = model.get("p1")
        for name in ("attributes", "references"):
            with pytest.raises(AttributeError, match="sealed"):
                setattr(p1, name, {"name": "Bob"})
        assert p1.attributes == {"name": "Alice", "age": 23}
        assert model.unseen("reader") == {}
        model.set_attribute(p1, "age", 4)
        assert list(model.unseen("reader")) == [p1]
        model.mark_all()
        assert list(model.unseen("reader")) == [p1, model.get("d1")]

    def test_a_many_reference_is_replaced_not_edited(self, pets_schema):
        model = InstanceModel(pets_schema)
        p = model.new_object("Person", "p1")
        model.new_object("Dog", "d1")
        model.new_object("Dog", "d2")
        model.set_reference(p, "dogs", "d1")
        first = p.references["dogs"]
        model.seen("reader")
        with pytest.raises(AttributeError):  # a tuple: no in-place edit goes unseen
            p.references["dogs"].append("d2")
        assert model.unseen("reader") == {}
        model.set_reference(p, "dogs", "d2")
        assert first == ("d1",) and p.references["dogs"] == ("d1", "d2")
        assert list(model.unseen("reader")) == [p]

    def test_copies_are_untracked_and_equal(self, base_schema):
        model = self._read_model(base_schema)
        dup = copy_model(model)
        assert model_equals(model, dup) and dup.readers == {}
        dup.set_attribute(dup.get("p1"), "name", "Bob")
        assert model.unseen("reader") == {}
        assert model.get("p1").attributes["name"] == "Alice"
        assert not model_equals(model, dup)

    def test_deep_copy_binds_its_own_objects(self, base_schema):
        model = self._read_model(base_schema)
        dup = copy.deepcopy(model)
        assert model_equals(model, dup)
        dup.set_attribute(dup.get("p1"), "name", "Bob")
        assert model.unseen("reader") == {}
        assert list(dup.unseen("reader")) == [dup.get("p1")]
        with pytest.raises(ModelError, match="does not belong to this model"):
            model.set_attribute(dup.get("p1"), "name", "Zed")  # its own model would not see it
        values = dict(model.get("d1").attributes)
        values["name"] = "Odie"  # a copy of a mapping alone is bound to nothing
        assert values == {"name": "Odie"} and model.unseen("reader") == {}

    def test_tracked_and_plain_mappings_compare_equal(self, base_schema):
        a = self._read_model(base_schema)
        b = InstanceModel(base_schema)
        for obj in a.objects.values():
            b.add(DynamicObject(obj.id, obj.class_name, obj.attributes, obj.references))
        assert a.readers and not b.readers
        assert isinstance(a.get("p1").attributes, Mapping) and not isinstance(a.get("p1").attributes, dict)
        assert model_equals(a, b) and model_equals(b, a)


class TestOneOwner:
    """An object belongs to the one model that added it, so the setters of
    no other model can write it past its own model's marks."""

    def test_a_second_model_cannot_add_an_object(self, base_schema):
        a, b = _pets_pair(base_schema), InstanceModel(base_schema)
        a.seen("reader")
        with pytest.raises(ModelError, match="'p1' already belongs to a model"):
            b.add(a.get("p1"))
        assert len(b) == 0
        with pytest.raises(ModelError, match="does not belong to this model"):
            b.set_attribute(a.get("p1"), "name", "Z")
        a.set_attribute(a.get("p1"), "name", "Z")
        assert list(a.unseen("reader")) == [a.get("p1")]

    def test_an_object_of_a_dropped_model_may_join_another(self, base_schema):
        p1 = _pets_pair(base_schema).get("p1")  # its model is gone
        b = InstanceModel(base_schema)
        assert b.add(p1) is p1 and b.get("p1").attributes["name"] == "Alice"
        b.set_attribute(p1, "name", "Z")


@pytest.mark.parametrize("size", [4, 2000])
def test_every_mutator_of_a_mapping_or_many_reference_is_refused(pets_schema, size):
    from evmigrate.checks import DICT_MUTATORS, LIST_MUTATORS, refuses

    model = InstanceModel(pets_schema)
    for i in range(size // 2):
        model.set_reference(model.new_object("Person", f"p{i}"), "dogs", model.new_object("Dog", f"d{i}").id)
        model.set_attribute(model.get(f"p{i}"), "name", "Ann")
    model.seen("reader")
    before = copy_model(model)
    for obj in model.objects.values():
        for mapping in (obj.attributes, obj.references):
            for mutator, args in DICT_MUTATORS.items():
                assert refuses(mapping, mutator, *args), mutator
        for mutator, args in LIST_MUTATORS.items():
            assert refuses(obj.references.get("dogs", ()), mutator, *args), mutator
    assert model_equals(model, before) and model.unseen("reader") == {}


class TestSealed:
    """Objects enter a model only through ``add`` and are never rebound,
    so every write to a model is one that it sees."""

    def test_objects_is_a_read_only_view(self, base_schema):
        model = _pets_pair(base_schema)
        with pytest.raises(TypeError):
            model.objects["p2"] = DynamicObject("p2", "Person")
        with pytest.raises(TypeError):
            del model.objects["p1"]
        assert list(model.objects) == ["p1", "d1"]
        model.new_object("Person", "p2")
        assert list(model.objects) == ["p1", "d1", "p2"]  # the view follows add

    @pytest.mark.parametrize("field", ["id", "class_name", "attributes", "references"])
    def test_no_field_can_be_set_or_deleted(self, base_schema, field):
        obj = _pets_pair(base_schema).get("d1")
        before = getattr(obj, field)
        with pytest.raises(AttributeError, match="sealed"):
            setattr(obj, field, before)
        with pytest.raises(AttributeError, match="sealed"):
            delattr(obj, field)
        assert getattr(obj, field) == before

    def test_an_object_built_from_another_ones_mapping_gets_its_own(self, base_schema):
        # a shared mapping would change both objects and mark only one
        model = _pets_pair(base_schema)
        model.seen("reader")
        p1 = model.get("p1")
        values = {"name": "Alice", "age": 23}
        x = model.add(DynamicObject("x", "Person", p1.attributes, p1.references))
        y = model.add(DynamicObject("y", "Person", values))
        values["name"] = "Eve"  # the caller's dict is not the object's
        model.seen("reader")
        model.set_attribute(p1, "name", "Zed")
        assert list(model.unseen("reader")) == [p1]
        assert x.attributes == y.attributes == {"name": "Alice", "age": 23}

    def test_copies_rebuild_through_the_constructor(self, base_schema):
        model = _pets_pair(base_schema)
        model.seen("reader")
        d1 = model.get("d1")
        dup = copy.deepcopy(d1)
        assert (dup.id, dup.class_name, dup.attributes, dup.references) == (
            "d1", "Dog", {"name": "Rex"}, {"owner": "p1"})
        with pytest.raises(TypeError):
            dup.attributes["name"] = "Odie"
        fresh = InstanceModel(base_schema)
        copied_p1 = fresh.add(copy.deepcopy(model.get("p1")))  # a copy belongs to no model
        fresh.set_attribute(copied_p1, "name", "Odie")
        assert model.unseen("reader") == {} and model.get("p1").attributes["name"] == "Alice"
        with pytest.raises(AttributeError, match="sealed"):
            dup.id = "d2"
        again = pickle.loads(pickle.dumps(model))
        assert model_equals(again, model) and list(again.objects) == ["p1", "d1"]


class TestIntBound:
    """A model holds no int of more than ``INT_DIGITS`` digits, so what a
    conversion computes from it still converts to text in any process."""

    @pytest.mark.parametrize("value", [10**4300, -10**4300, 10**600, -10**600],
                             ids=["1e4300", "-1e4300", "1e600", "-1e600"])
    def test_a_model_refuses_an_int_past_the_bound(self, base_schema, value):
        model = _pets_pair(base_schema)
        with pytest.raises((ModelError, ValueError)):
            model.set_attribute(model.get("p1"), "age", value)
        with pytest.raises((ModelError, ValueError)):
            model.add(DynamicObject("p2", "Person", {"age": value}))
        assert model.get("p1").attributes["age"] == 23 and "p2" not in model.objects

    def test_the_bound_leaves_a_digit_for_a_conversion(self, base_schema):
        from evmigrate.metamodel import INT_DIGITS, int_in_bound

        assert int_in_bound(10**INT_DIGITS - 1) and int_in_bound(1 - 10**INT_DIGITS)
        assert not int_in_bound(10**INT_DIGITS) and not int_in_bound(-10**INT_DIGITS)
        # a sum of two ints in the bound has at most one digit more, and every
        # process converts ints of this many digits
        assert INT_DIGITS + 1 <= sys.int_info.str_digits_check_threshold
        model = _pets_pair(base_schema)
        for text in ("9" * (INT_DIGITS + 1), "-" + "9" * (INT_DIGITS + 1)):
            with pytest.raises(ModelError, match=f"at most {INT_DIGITS} digits"):
                model.set_attribute_text(model.get("p1"), "age", text)
        model.set_attribute(model.get("p1"), "age", 1 - 10**INT_DIGITS)
        assert model.get("p1").attributes["age"] == 1 - 10**INT_DIGITS


#: every field of an object; none can be set or deleted, however it was built
FIELDS = ("id", "class_name", "_values", "_layout", "_model")

#: a pets model as ``encode_model`` writes it: the fast reader reads it
PETS_TEXT = "obj p1 Person\n  name Alice\n  dogs d1\nobj d1 Dog\n  name Rex\n  owner p1\n"


class TestOneConstructionPath:
    """``metamodel._object`` builds every object, from each way in: it
    stores the fields on an unsealed ``_Open`` and makes it a sealed
    ``DynamicObject``, already its model's own where a model makes it."""

    @staticmethod
    def _assert_sealed(objects):
        objects = list(objects)
        assert objects and all(type(obj) is DynamicObject for obj in objects)
        assert not [obj for obj in gc.get_objects() if type(obj) is metamodel._Open]
        for obj in objects:
            for field in FIELDS:
                before = getattr(obj, field)
                with pytest.raises(AttributeError, match="sealed"):
                    setattr(obj, field, before)
                with pytest.raises(AttributeError, match="sealed"):
                    delattr(obj, field)
                assert getattr(obj, field) is before

    @staticmethod
    def _assert_owned(model):
        assert all(obj._model is model._ref for obj in model.objects.values())

    @pytest.mark.parametrize("text", [PETS_TEXT, "# not the encoder's layout\n" + PETS_TEXT],
                             ids=["fast", "lines"])
    def test_the_fast_and_the_line_decoder(self, pets_schema, text):
        model = decode_model(text, pets_schema)
        assert (model.blocks is None) is text.startswith("#")  # each reader read one of them
        self._assert_sealed(model.objects.values())
        self._assert_owned(model)

    def test_a_runner_builds_a_new_object_and_an_owner_stub(self, base_editor):
        base_editor.execute(have_dog("d9", owner_id="p9", name="Rex"))
        model = base_editor.model
        assert model.get("p9").attributes == {} and model.get("d9").references == {"owner": "p9"}
        self._assert_sealed(model.objects.values())
        self._assert_owned(model)

    def test_copy_model_and_new_object(self, base_schema):
        model = _pets_pair(base_schema)
        copied = copy_model(model)
        self._assert_sealed([*model.objects.values(), *copied.objects.values()])
        self._assert_owned(model)
        self._assert_owned(copied)

    def test_the_public_constructor_copies_its_callers_dicts(self):
        attributes, dogs = {"name": "Ann"}, ["d1"]
        references = {"dogs": dogs}
        obj = DynamicObject("p1", "Person", attributes, references)
        attributes["name"], references["dogs"] = "Eve", ["d2"]
        dogs.append("d3")
        assert obj.attributes == {"name": "Ann"} and obj.references == {"dogs": ("d1",)}
        assert obj._model is None and obj._layout is None
        self._assert_sealed([obj])

    def test_pickle_and_deep_copy(self, base_schema):
        model = _pets_pair(base_schema)
        for dup in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            self._assert_sealed(dup.objects.values())
            self._assert_owned(dup)
        free = [pickle.loads(pickle.dumps(model.get("d1"))), copy.deepcopy(model.get("p1")), copy.copy(model.get("p1"))]
        self._assert_sealed(free)
        assert all(obj._model is None for obj in free)

    def test_patch_builds_sees_each_object_made_for_the_decoding_model(self, pets_schema, monkeypatch):
        calls = []
        patch_builds(monkeypatch, pets_schema, lambda *args: calls.append(args) or metamodel._object(*args))
        model = decode_model(PETS_TEXT, pets_schema)
        assert [args[0] for args in calls] == list(model.objects)
        assert all(len(args) == 5 and args[4] is model._ref for args in calls)
        self._assert_owned(model)

    def test_a_model_admits_only_an_object_built_its_own(self, pets_schema):
        model, other = InstanceModel(pets_schema), InstanceModel(pets_schema)
        layout = pets_schema.classes["Person"]
        for owner in (None, other._ref):
            with pytest.raises(AssertionError, match="must be built owned"):
                model._admit(metamodel._object("p1", "Person", (None,) * len(layout.slots), layout, owner))
        assert not model.objects


class TestLayout:
    """An object in a model holds its values in one exact tuple, in its
    class's feature order; its mappings are live, read-only views."""

    @staticmethod
    def _assert_laid_out(model):
        for obj in model.objects.values():
            layout = model.schema.classes[obj.class_name]
            assert obj._layout is layout and type(obj._values) is tuple
            assert len(obj._values) == len(layout.slots)
            assert not any(isinstance(value, dict) for value in obj._values)

    def test_every_model_holds_one_exact_tuple_per_object(self, pets_schema):
        from evmigrate import MigrationSession, decode_model, encode_model, migrate_forward

        text = encode_model(_pets_pair(pets_schema))
        fast, lines = decode_model(text, pets_schema), decode_model("# c\n" + text, pets_schema)
        session = MigrationSession.for_scenario("ybirth")
        merged = migrate_forward(session, decode_model(text, session.m1.schema))
        for model in (fast, lines, merged, copy_model(fast), copy.deepcopy(fast), pickle.loads(pickle.dumps(lines))):
            self._assert_laid_out(model)
            assert len(model) == 2

    def test_a_view_taken_before_a_write_reads_the_new_values(self, base_schema):
        model = _pets_pair(base_schema)
        p1, d1 = model.get("p1"), model.get("d1")
        attributes, references = p1.attributes, d1.references
        model.set_attribute(p1, "name", "Bob")
        model.new_object("Person", "p2")
        model.set_reference(d1, "owner", "p2")
        assert attributes == {"name": "Bob", "age": 23} and references == {"owner": "p2"}
        assert list(attributes) == ["name", "age"] and len(references) == 1

    def test_a_view_taken_before_a_cross_schema_adopt_reads_the_new_layout(self, base_schema):
        from evmigrate import Editor

        other = load_schema("class Person\n  ref pal -> Person one\n  attr age int\n  attr name string\n"
                            "class Dog\n  ref owner -> Person one\n  attr name string\n", name="other")
        model = _pets_pair(base_schema)
        p1, d1 = model.get("p1"), model.get("d1")
        attributes, references = p1.attributes, d1.references
        Editor(other).adopt_model(model)
        self._assert_laid_out(model)
        assert p1._values == (23, "Alice", None) and d1._values == ("Rex", "p1")
        assert attributes == {"name": "Alice", "age": 23} and references == {"owner": "p1"}
        model.set_reference(p1, "pal", "p1")
        assert p1.references == {"pal": "p1"} and p1.attributes == attributes

    def test_an_unset_many_reference_differs_from_an_empty_one(self, pets_schema):
        unset, empty = InstanceModel(pets_schema), InstanceModel(pets_schema)
        unset.new_object("Person", "p1")
        empty.add(DynamicObject("p1", "Person", references={"dogs": ()}))
        assert unset.get("p1")._values == (None, None, None) and empty.get("p1")._values == (None, None, ())
        assert unset.get("p1").references == {} and empty.get("p1").references == {"dogs": ()}
        assert not model_equals(unset, empty) and not model_equals(empty, unset)
        assert model_equals(empty, copy_model(empty))

    def test_a_write_to_a_copy_leaves_the_original(self, pets_schema):
        model = _pets_pair(pets_schema)
        dup = copy_model(model)
        assert all(obj._values is model.get(obj_id)._values for obj_id, obj in dup.objects.items())
        before = {obj_id: obj._values for obj_id, obj in model.objects.items()}
        dup.set_attribute(dup.get("p1"), "name", "Bob")
        dup.set_attribute_text(dup.get("d1"), "age", "7")
        dup.set_reference(dup.get("p1"), "dogs", "d1")
        assert {obj_id: obj._values for obj_id, obj in model.objects.items()} == before
        assert model.get("p1").attributes == {"name": "Alice", "age": 23} and model.get("p1").references == {}
        assert dup.get("p1")._values == ("Bob", 23, ("d1",)) and dup.get("d1")._values == ("Rex", 7, "p1")

    def test_an_object_of_a_dropped_model_joins_a_model_of_another_layout(self, base_schema, pets_schema):
        d1 = _pets_pair(pets_schema).get("d1")  # its model is gone
        model = InstanceModel(base_schema)
        model.new_object("Person", "p1")
        assert model.add(d1) is d1 and d1._layout is base_schema.classes["Dog"]
        assert d1.attributes == {"name": "Rex"} and d1.references == {"owner": "p1"}
        assert d1.references["owner"] is model.get("p1").id
        model.set_attribute(d1, "age", 3)
        self._assert_laid_out(model)

    def test_the_views_of_a_free_and_a_laid_out_object_refuse_every_mutator(self, pets_schema):
        from evmigrate.checks import DICT_MUTATORS, refuses

        free = DynamicObject("p1", "Person", {"name": "Ann"}, {"dogs": ["d1"]})
        model = InstanceModel(pets_schema)
        model.new_object("Dog", "d1")
        for obj in (free, model.add(DynamicObject("p2", "Person", {"name": "Ann"}, {"dogs": ["d1"]}))):
            for view in (obj.attributes, obj.references):
                assert all(refuses(view, mutator, *args) for mutator, args in DICT_MUTATORS.items())
            assert obj.attributes == {"name": "Ann"} and obj.references == {"dogs": ("d1",)}
        assert free._layout is None and model.add(free) is free and free._values == ("Ann", None, ("d1",))


# -- properties ----------------------------------------------------------

name_values = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz XYZ0123456789-_:", max_size=12
).map(str.strip)
age_values = st.integers(min_value=0, max_value=150)


@given(name=name_values, age=age_values)
def test_set_get_roundtrip(name, age):
    schema = load_schema(PETS_SCHEMA_TEXT)
    model = InstanceModel(schema)
    p = model.new_object("Person", "p1")
    model.set_attribute(p, "name", name)
    model.set_attribute(p, "age", age)
    assert p.attributes.get("name") == name
    assert p.attributes.get("age") == age


@given(feature=st.text(alphabet="abcdefghij", min_size=1, max_size=8))
def test_undeclared_feature_names_always_rejected(feature):
    schema = load_schema(PETS_SCHEMA_TEXT)
    declared = {"name", "age", "dogs", "owner"}
    model = InstanceModel(schema)
    p = model.new_object("Person", "p1")
    if feature in declared:
        return
    with pytest.raises(ModelError):
        model.set_attribute(p, feature, "x")
    with pytest.raises(ModelError):
        model.set_reference(p, feature, "p1")


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_model_equals_is_an_equivalence_relation(seed):
    from evmigrate.checks import random_model
    import random as _random

    schema = load_schema(PETS_SCHEMA_TEXT)
    a = random_model(_random.Random(seed), schema, max_objects=5)

    # b: same content, different insertion order (targets once all are in)
    b = InstanceModel(schema)
    for obj in reversed(list(a.objects.values())):
        b.add(DynamicObject(obj.id, obj.class_name, obj.attributes))
    for obj in a.objects.values():
        for name, value in obj.references.items():
            for target in value if isinstance(value, tuple) else (value,):
                b.set_reference(b.get(obj.id), name, target)
    c = copy_model(b)

    assert model_equals(a, a)
    assert model_equals(a, b) == model_equals(b, a)
    if model_equals(a, b) and model_equals(b, c):
        assert model_equals(a, c)
