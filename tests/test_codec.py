import random

import pytest
from hypothesis import given, strategies as st

from evmigrate import (
    Editor,
    EventStore,
    FormatError,
    MigrationError,
    decode_log,
    decode_model,
    encode_log,
    encode_model,
    have_dog,
    have_person,
    load_schema,
    model_equals,
)
from evmigrate.checks import random_model
from evmigrate.codec import _decode_canonical, _decode_lines, encode_commands

from conftest import PETS_SCHEMA_TEXT, data_text

GOLDEN_SINGLE = """\
format: 1
referenceYear: 2020
commands:
  - command: HavePerson
    id: p1
    name: Alice
    age: 23
"""


def store_of(*cmds) -> EventStore:
    store = EventStore()
    for cmd in cmds:
        store.put(cmd)
    return store


class TestEncodeLog:
    def test_empty_store_is_header_only(self):
        assert encode_log(EventStore(), 2020) == "format: 1\nreferenceYear: 2020\ncommands:\n"

    def test_golden_single_person(self):
        store = store_of(have_person("p1", name="Alice", age=23))
        assert encode_log(store, 2020) == GOLDEN_SINGLE

    def test_encoding_is_stable(self):
        store = store_of(have_person("p1", name="Alice", age=23), have_dog("d1", age=4))
        assert encode_log(store, 2020) == encode_log(store, 2020)

    def test_encoding_sees_commands_put_after_an_earlier_encode(self):
        store = store_of(have_dog("d1", age=4))
        dog_block = encode_log(store, 2020).split("commands:\n")[1]
        store.commands().clear()  # callers get a copy of the order
        store.put(have_person("p1", name="Alice", age=23))
        assert encode_log(store, 2020) == GOLDEN_SINGLE + dog_block

    def test_persons_sort_before_dogs_then_by_id(self):
        store = store_of(
            have_dog("a9", name="Rex"),
            have_person("z1", name="Zoe"),
            have_person("a1", name="Ann"),
            have_dog("a2", name="Taz"),
        )
        text = encode_log(store, 2020)
        ids = [line.split(": ")[1] for line in text.splitlines() if line.startswith("    id")]
        assert ids == ["a1", "z1", "a2", "a9"]

    def test_unset_fields_are_omitted(self):
        text = encode_log(store_of(have_dog("d1")), 2020)
        assert text == "format: 1\nreferenceYear: 2020\ncommands:\n  - command: HaveDog\n    id: d1\n"


def _block(*field_lines):
    """GOLDEN_SINGLE's header and one HavePerson block with the given lines."""
    header = "format: 1\nreferenceYear: 2020\ncommands:\n  - command: HavePerson\n"
    return header + "".join(line + "\n" for line in field_lines)


class TestDecodeLog:
    @pytest.mark.parametrize(
        "text, expected",
        [
            (GOLDEN_SINGLE.replace("\n", "\r\n"), have_person("p1", name="Alice", age=23)),
            (_block("    id: p1", "    # a comment", "    name: Alice"), have_person("p1", name="Alice")),
            (_block("    id: p1", "", "    age: 23"), have_person("p1", age=23)),
            (_block("    id: p1", "    name: a: b"), have_person("p1", name="a: b")),
            (_block("    id: p1", "    name: #1 fan"), have_person("p1", name="#1 fan")),
            (_block("    id: p1", "    name:"), have_person("p1", name="")),
            (_block("    id: p1", "    age: -3"), have_person("p1", age=-3)),
        ],
        ids=["crlf", "comment-in-block", "blank-in-block", "name-with-colon",
             "name-starting-with-hash", "empty-name", "negative-age"],
    )
    def test_decodes_one_command(self, text, expected):
        doc = decode_log(text)
        assert doc.format_version == 1
        assert doc.reference_year == 2020
        assert doc.commands == [expected]

    @pytest.mark.parametrize(
        "text, match, line",
        [
            (_block("    id: p1", "   name: Alice"), "expected '  - command: <kind>'", 6),
            (_block("    id: p1", "    age: 2O"), "age must be an integer", 6),
            (_block("    id: p1", "    ownerId: p9"), "not valid for HavePerson", 6),
        ],
        ids=["three-space-indent", "age-not-integer", "owner-on-person"],
    )
    def test_error_reports_line_number(self, text, match, line):
        with pytest.raises(FormatError, match=match) as exc:
            decode_log(text)
        assert exc.value.line == line

    def test_both_readers_accept_an_empty_commands_section(self):
        # what a ship sends when nothing changed
        text = encode_log(EventStore(), 2020)
        for read in (_decode_canonical, _decode_lines, decode_log):
            doc = read(text)
            assert (doc.format_version, doc.reference_year, doc.commands) == (1, 2020, [])

    def test_roundtrip_of_golden(self):
        doc = decode_log(GOLDEN_SINGLE)
        assert doc.format_version == 1
        assert doc.reference_year == 2020
        assert doc.commands == [have_person("p1", name="Alice", age=23)]

    def test_unknown_kind(self):
        text = GOLDEN_SINGLE.replace("HavePerson", "HaveCat")
        with pytest.raises(FormatError, match="HaveCat"):
            decode_log(text)

    def test_duplicate_id(self):
        text = GOLDEN_SINGLE + "  - command: HavePerson\n    id: p1\n"
        with pytest.raises(FormatError, match="duplicate command id"):
            decode_log(text)

    def test_unsupported_format_version(self):
        with pytest.raises(FormatError, match="unsupported format version"):
            decode_log(GOLDEN_SINGLE.replace("format: 1", "format: 2"))

    def test_malformed_line_reports_number(self):
        text = "format: 1\nreferenceYear: 2020\ncommands:\n  - command: HavePerson\n    id p1\n"
        with pytest.raises(FormatError) as exc:
            decode_log(text)
        assert exc.value.line == 5

    def test_owner_id_invalid_on_have_person(self):
        text = GOLDEN_SINGLE + "  - command: HavePerson\n    id: p2\n    ownerId: p1\n"
        with pytest.raises(FormatError, match="not valid"):
            decode_log(text)

    def test_missing_id(self):
        text = "format: 1\nreferenceYear: 2020\ncommands:\n  - command: HaveDog\n    name: Rex\n"
        with pytest.raises(FormatError, match="non-empty id"):
            decode_log(text)

    def test_duplicate_field(self):
        text = GOLDEN_SINGLE + "  - command: HavePerson\n    id: p2\n    id: p3\n"
        with pytest.raises(FormatError, match="duplicate field"):
            decode_log(text)

    def test_age_must_be_integer(self):
        with pytest.raises(FormatError, match="age"):
            decode_log(GOLDEN_SINGLE.replace("age: 23", "age: young"))

    def test_bad_reference_year(self):
        with pytest.raises(FormatError):
            decode_log(GOLDEN_SINGLE.replace("referenceYear: 2020", "referenceYear: 0"))

    def test_comments_and_blank_lines_tolerated(self):
        text = "# log\nformat: 1\n\nreferenceYear: 2020\ncommands:\n"
        assert decode_log(text).commands == []

    def test_noncanonical_input_reencodes_canonical(self):
        shuffled = (
            "format: 1\n"
            "referenceYear: 2020\n"
            "commands:\n"
            "  - command: HaveDog\n"
            "    age: 4\n"
            "    name: Rex\n"
            "    ownerId: p1\n"
            "    id: d1\n"
            "  - command: HavePerson\n"
            "    age: 23\n"
            "    id: p1\n"
            "    name: Alice\n"
        )
        doc = decode_log(shuffled)
        assert encode_commands(doc.commands, doc.reference_year) == data_text("golden_pets.cmdlog")

    def test_canonical_text_roundtrips_to_itself(self):
        golden = data_text("golden_pets.cmdlog")
        doc = decode_log(golden)
        assert encode_commands(doc.commands, doc.reference_year) == golden


def random_store(rng) -> EventStore:
    store = EventStore()
    n = rng.randint(0, 6)
    for i in range(n):
        name = None if rng.random() < 0.3 else f"n{rng.randint(0, 99)} x"
        age = None if rng.random() < 0.3 else rng.randint(0, 150)
        if rng.random() < 0.5:
            store.put(have_person(f"p{i}", name=name, age=age))
        else:
            owner = None if rng.random() < 0.4 else f"o{rng.randint(1, 5)}"
            store.put(have_dog(f"d{i}", owner_id=owner, name=name, age=age))
    return store


class TestLogRoundtrip:
    def test_random_stores_roundtrip(self):
        rng = random.Random(99)
        for _ in range(100):
            store = random_store(rng)
            year = rng.choice([2000, 2020, 2024])
            doc = decode_log(encode_log(store, year))
            assert doc.reference_year == year
            assert {c.id: c for c in doc.commands} == store.snapshot()

    def test_unset_survives_the_wire(self):
        store = store_of(have_person("p1", name=""), have_dog("d1", age=0))
        doc = decode_log(encode_log(store, 2020))
        by_id = {c.id: c for c in doc.commands}
        assert by_id["p1"].name == "" and by_id["p1"].age is None
        assert by_id["d1"].age == 0 and by_id["d1"].name is None and by_id["d1"].owner_id is None


#: what a one-character edit may insert: separators, comment marks, every
#: kind of line break and whitespace, signs and digits
_PERTURBATIONS = " :#-+_01a\t\n\r\x0b\x0c\x1c\x85\xa0\u2028"


def perturbed(rng, text) -> str:
    """``text`` with one random character deleted, replaced or inserted, or
    with one line or command block repeated, or one kind swapped."""
    op = rng.choice(("delete", "replace", "insert", "insert", "line", "block", "kind"))
    if op == "line":
        lines = text.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        return "".join(lines[: i + 1] + lines[i:])
    if op == "block" and "  - " in text:
        blocks = text.split("  - ")
        return text + "  - " + rng.choice(blocks[1:])
    if op == "kind" and "HaveDog" in text:
        return text.replace("HaveDog", "HavePerson", 1)
    i = rng.randrange(len(text))
    if op == "delete":
        return text[:i] + text[i + 1:]
    ch = rng.choice(_PERTURBATIONS)
    return text[:i] + ch + text[i + (op == "replace"):]


def decode_outcome(decode, text):
    try:
        return decode(text)
    except FormatError as e:
        return ("FormatError", str(e), e.line)


class TestCanonicalFastPath:
    """The regular-expression reader for canonical text must agree with the
    line reader on every input it accepts, and decline the rest."""

    def test_agrees_with_line_reader_on_encoded_and_perturbed_logs(self):
        rng = random.Random(20261018)
        taken = 0
        for _ in range(300):
            text = encode_log(random_store(rng), rng.choice([2000, 2020, 2024]))
            assert _decode_canonical(text) == _decode_lines(text)
            for candidate in [perturbed(rng, text) for _ in range(30)]:
                expected = decode_outcome(_decode_lines, candidate)
                fast = _decode_canonical(candidate)
                if fast is not None:
                    taken += 1
                    assert fast == expected, repr(candidate)
                assert decode_outcome(decode_log, candidate) == expected, repr(candidate)
        # Edits inside values, ids and ages keep many texts canonical.
        assert taken > 500


class TestEncodeModel:
    def test_empty_model_empty_document(self, base_schema):
        from evmigrate import InstanceModel

        assert encode_model(InstanceModel(base_schema)) == ""

    def test_golden_pets(self, base_schema):
        model = decode_model(data_text("pets.inst"), base_schema)
        assert encode_model(model) == data_text("pets.inst")

    def test_many_reference_one_line_per_target(self, pets_schema):
        model = decode_model(
            "obj p1 Person\nobj d1 Dog\nobj d2 Dog\n", pets_schema
        )
        model.set_reference(model.get("p1"), "dogs", "d1")
        model.set_reference(model.get("p1"), "dogs", "d2")
        assert encode_model(model) == (
            "obj p1 Person\n  dogs d1\n  dogs d2\nobj d1 Dog\nobj d2 Dog\n"
        )


class TestDecodeModel:
    @pytest.mark.parametrize(
        "text, match, line",
        [
            ("obj p1 Person\n\nobj c1 Cat\n", "unknown class 'Cat'", 3),
            ("obj p1 Person\n# again\nobj p1 Person\n", "duplicate object id 'p1'", 3),
            ("obj p1 Person\n  name Alice\n  salary 5\n", "no attribute 'salary'", 3),
            ("obj p1 Person\n  age 2O\n", "p1.age expects an integer, got '2O'", 2),
            ("obj d1 Dog\n  owner p1\nobj d2 Dog\n\n  owner d1\nobj p1 Person\n",
             "d2.owner: target 'd1' is a Dog, expected Person", 5),
        ],
        ids=["unknown-class", "duplicate-id", "undeclared-feature", "age-not-integer",
             "wrong-target-class"],
    )
    def test_model_layer_error_reports_line_number(self, base_schema, text, match, line):
        with pytest.raises(FormatError, match=match) as exc:
            decode_model(text, base_schema)
        assert exc.value.line == line

    def test_line_break_in_a_name_cannot_forge_an_object(self, base_schema):
        model = decode_model("obj p1 Person\n  name Alice\n", base_schema)
        with pytest.raises(MigrationError, match="line break"):
            model.set_attribute(model.get("p1"), "name", "x\nobj evil Person")
        assert set(decode_model(encode_model(model), base_schema).objects) == {"p1"}

    def test_missing_reference_target(self, base_schema):
        text = "obj d1 Dog\n  owner ghost\n"
        with pytest.raises(FormatError, match="ghost") as exc:
            decode_model(text, base_schema)
        assert exc.value.line == 2

    def test_forward_reference_is_fine(self, base_schema):
        model = decode_model("obj d1 Dog\n  owner p1\nobj p1 Person\n", base_schema)
        assert model.get("d1").references["owner"] == "p1"

    def test_unknown_class(self, base_schema):
        with pytest.raises(FormatError, match="unknown class"):
            decode_model("obj c1 Cat\n", base_schema)

    def test_duplicate_object_id(self, base_schema):
        with pytest.raises(FormatError, match="duplicate object id"):
            decode_model("obj p1 Person\nobj p1 Person\n", base_schema)

    def test_undeclared_feature(self, base_schema):
        with pytest.raises(FormatError, match="salary"):
            decode_model("obj p1 Person\n  salary 5\n", base_schema)

    def test_int_attribute_parse_error_with_line(self, base_schema):
        with pytest.raises(FormatError) as exc:
            decode_model("obj p1 Person\n  age young\n", base_schema)
        assert exc.value.line == 2

    def test_feature_line_before_object(self, base_schema):
        with pytest.raises(FormatError, match="before any"):
            decode_model("  name Alice\n", base_schema)

    def test_wrong_target_class(self, base_schema):
        text = "obj d1 Dog\nobj d2 Dog\n  owner d1\n"
        with pytest.raises(FormatError, match="expected Person"):
            decode_model(text, base_schema)

    def test_omitted_attributes_stay_unset(self, base_schema):
        model = decode_model("obj p1 Person\n  name Alice\n", base_schema)
        assert model.get("p1").attributes == {"name": "Alice"}

    def test_names_keep_inner_spaces(self, base_schema):
        model = decode_model("obj p1 Person\n  name Alice  van  Dyk\n", base_schema)
        assert model.get("p1").attributes["name"] == "Alice  van  Dyk"

    def test_empty_string_value(self, base_schema):
        model = decode_model("obj p1 Person\n  name\n", base_schema)
        assert model.get("p1").attributes["name"] == ""
        assert encode_model(model) == "obj p1 Person\n  name\n"


class TestModelRoundtrip:
    def test_random_models_roundtrip(self):
        schema = load_schema(PETS_SCHEMA_TEXT)
        rng = random.Random(5)
        for _ in range(60):
            model = random_model(rng, schema)
            back = decode_model(encode_model(model), schema)
            assert model_equals(model, back)


@given(
    name=st.one_of(st.none(), st.text(alphabet="abcXYZ :-_0123456789", max_size=10).map(str.strip)),
    age=st.one_of(st.none(), st.integers(min_value=0, max_value=150)),
    owner=st.one_of(st.none(), st.sampled_from(["p1", "p2"])),
)
def test_any_dog_command_roundtrips(name, age, owner):
    store = store_of(have_dog("d1", owner_id=owner, name=name, age=age))
    doc = decode_log(encode_log(store, 2020))
    assert doc.commands == [have_dog("d1", owner_id=owner, name=name, age=age)]
