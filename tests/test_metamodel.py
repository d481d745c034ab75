import pytest
from hypothesis import given, strategies as st

from evmigrate import (
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
        assert m.has_attribute("Person", "name")

    def test_feature_before_class(self):
        with pytest.raises(SchemaError, match="before any class"):
            load_schema("  attr name string\n")


class TestHasAttribute:
    def test_ybirth_variant_declares_ybirth(self, ybirth_schema):
        assert ybirth_schema.has_attribute("Person", "ybirth") is True

    def test_base_variant_has_no_ybirth(self, base_schema):
        assert base_schema.has_attribute("Person", "ybirth") is False

    def test_name_present_in_every_variant(self, base_schema, ybirth_schema, dog_no_age_schema):
        for schema in (base_schema, ybirth_schema, dog_no_age_schema):
            assert schema.has_attribute("Person", "name")

    def test_unknown_class(self, base_schema):
        with pytest.raises(SchemaError, match="unknown class"):
            base_schema.has_attribute("Cat", "name")


class TestAttributes:
    def test_set_then_get(self, base_schema):
        model = InstanceModel(base_schema)
        p = model.new_object("Person", "p1")
        model.set_attribute(p, "name", "Alice")
        assert model.get_attribute(p, "name") == "Alice"

    def test_last_write_wins(self, base_schema):
        model = InstanceModel(base_schema)
        p = model.new_object("Person", "p1")
        model.set_attribute(p, "age", 5)
        model.set_attribute(p, "age", 7)
        assert model.get_attribute(p, "age") == 7

    def test_undeclared_attribute_rejected(self, base_schema):
        model = InstanceModel(base_schema)
        p = model.new_object("Person", "p1")
        with pytest.raises(ModelError, match="ybirth"):
            model.set_attribute(p, "ybirth", 1997)

    def test_unset_reads_as_none(self, base_schema):
        model = InstanceModel(base_schema)
        p = model.new_object("Person", "p1")
        assert model.get_attribute(p, "age") is None

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
            p.attributes["name"] = f"x{brk}obj evil Person"  # past the setter
            with pytest.raises(ModelError, match="line break"):
                model.validate()
            with pytest.raises(ModelError, match="line break"):
                model.new_object("Person", f"p2{brk}")
        model.set_attribute(p, "name", "tab\tand \x00 are kept")
        model.validate()

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
        assert model.get_reference(d, "owner") == "p2"

    def test_many_has_set_semantics(self, pets_schema):
        model = InstanceModel(pets_schema)
        p = model.new_object("Person", "p1")
        model.new_object("Dog", "d1")
        model.set_reference(p, "dogs", "d1")
        model.set_reference(p, "dogs", "d1")
        assert model.get_reference(p, "dogs") == ["d1"]

    def test_undeclared_reference(self, pets_schema):
        model = InstanceModel(pets_schema)
        p = model.new_object("Person", "p1")
        with pytest.raises(ModelError, match="no reference"):
            model.set_reference(p, "cats", "d1")

    def test_validate_rejects_dangling_target(self, pets_schema):
        model = InstanceModel(pets_schema)
        d = model.new_object("Dog", "d1")
        model.set_reference(d, "owner", "ghost")
        with pytest.raises(ModelError, match="does not exist"):
            model.validate()

    def test_validate_rejects_wrong_target_class(self, pets_schema):
        model = InstanceModel(pets_schema)
        d = model.new_object("Dog", "d1")
        model.new_object("Dog", "d2")
        model.set_reference(d, "owner", "d2")
        with pytest.raises(ModelError, match="expected Person"):
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
    assert model.get_attribute(p, "name") == name
    assert model.get_attribute(p, "age") == age


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

    # b: same content, different insertion order
    src = copy_model(a)
    b = InstanceModel(schema)
    for obj in reversed(list(src.objects.values())):
        b.objects[obj.id] = obj
    c = copy_model(b)

    assert model_equals(a, a)
    assert model_equals(a, b) == model_equals(b, a)
    if model_equals(a, b) and model_equals(b, c):
        assert model_equals(a, c)
