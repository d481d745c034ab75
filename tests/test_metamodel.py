import copy
import pickle
from types import MappingProxyType

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
from evmigrate.metamodel import LINE_BREAKS

from conftest import PETS_SCHEMA_TEXT


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

    @pytest.mark.parametrize("obj_id", ["", "a\nb", "a\u2028b"])
    def test_add_refuses_the_id(self, base_schema, obj_id):
        # the one check of an id: no object can enter past it, or change id
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
        assert type(a.get("p1").attributes) is MappingProxyType
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
