import random

import pytest
from hypothesis import given, settings, strategies as st

from evmigrate import (
    Editor,
    EventStore,
    DynamicObject,
    FormatError,
    InstanceModel,
    MigrationError,
    ModelError,
    SchemaError,
    copy_model,
    decode_log,
    decode_model,
    encode_log,
    encode_model,
    have_dog,
    have_person,
    load_schema,
    model_equals,
)
from evmigrate import codec
from evmigrate.commands import Command
from evmigrate.checks import delta_case, random_model
from evmigrate.codec import (
    CHUNK,
    ENCODE,
    CommandLogDocument,
    _decode_canonical,
    _decode_lines,
    _decode_model_canonical,
    _decode_model_lines,
)
from evmigrate.metamodel import KIND_INT, LINE_BREAKS
from evmigrate.sync import SCENARIOS

from conftest import PETS_SCHEMA_TEXT, data_text
from conftest import count_checked_commands

PETS_INSTANCE = """\
obj p1 Person
  name Alice
  age 23
  dogs d1
  dogs d2
obj d1 Dog
  name Rex
  age 4
  owner p1
obj d2 Dog
"""

GOLDEN_SINGLE = """\
format: 1
referenceYear: 2020
commands:
  - command: HavePerson
    id: p1
    name: Alice
    age: 23
"""


class TestIntBound:
    """Both readers of each format refuse an int past the bound, as the
    model and ``Command`` do, and read one inside it."""

    @pytest.mark.parametrize("digits", [601, 1000, 5000])
    def test_a_log_or_an_instance_file_with_an_int_past_the_bound_is_refused(self, pets_schema, digits):
        age = "9" * digits
        log = f"format: 1\nreferenceYear: 2020\ncommands:\n  - command: HavePerson\n    id: p1\n    age: {age}\n"
        with pytest.raises(FormatError, match="line [46]: age must"):  # its block's line, or its own
            decode_log(log)
        with pytest.raises(FormatError, match="reference ?[yY]ear must"):
            decode_log(log.replace("2020", age))
        with pytest.raises(FormatError, match="line 2"):
            decode_model(f"obj p1 Person\n  age -{age}\n", pets_schema)

    def test_an_int_inside_the_bound_reads_back_as_written(self, pets_schema):
        age = 10**600 - 1
        store = store_of(have_person("p1", age=-age))
        log = encode_log(store, age)
        assert _decode_canonical(log) is not None
        assert decode_log(log) == decode_log("# c\n" + log) == CommandLogDocument(1, age, list(store))
        text = f"obj p1 Person\n  age {age}\n"
        assert decode_model(text, pets_schema).blocks is not None
        assert encode_model(decode_model(text, pets_schema)) == text
        assert encode_model(decode_model("# c\n" + text, pets_schema)) == text


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

    @pytest.mark.parametrize("fields", ["    id: a b", "    id: d2\n    ownerId: p 1", "    id: d2\n    ownerId:"],
                             ids=["id", "owner-id", "empty-owner-id"])
    def test_an_id_that_is_not_one_token_names_its_block(self, fields):
        # the fast reader declines it; the line reader names the block's line
        text = GOLDEN_SINGLE + f"  - command: HaveDog\n{fields}\n    name: Rex\n"
        with pytest.raises(FormatError, match="line 8: .*one token") as exc:
            decode_log(text)
        assert exc.value.line == 8
        assert codec._decode_canonical(text) is None

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
        assert encode_log(store_of(*doc.commands), doc.reference_year) == data_text("golden_pets.cmdlog")

    def test_canonical_text_roundtrips_to_itself(self):
        golden = data_text("golden_pets.cmdlog")
        doc = decode_log(golden)
        assert encode_log(store_of(*doc.commands), doc.reference_year) == golden


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

    @pytest.mark.parametrize("year, age", [(2020, "1" * 5000), ("1" * 5000, 3)],
                             ids=["age", "referenceYear"])
    def test_an_integer_too_long_to_convert_is_the_line_readers_error(self, year, age):
        text = f"format: 1\nreferenceYear: {year}\ncommands:\n  - command: HavePerson\n" \
               f"    id: p1\n    age: {age}\n"
        assert _decode_canonical(text) is None
        expected = decode_outcome(_decode_lines, text)
        assert expected[0] == "FormatError" and "must be an integer" in expected[1]
        assert decode_outcome(decode_log, text) == expected


    def test_fast_read_commands_are_what_the_checked_constructor_builds(self):
        # the fast reader builds its commands unchecked; a plain tuple would
        # compare equal, so the type is asserted too
        rng = random.Random(20261019)
        read = 0
        for _ in range(200):
            store = random_store(rng)
            store.put(have_person("pe", name=""))
            text = encode_log(store, 2020)
            for candidate in [text] + [perturbed(rng, text) for _ in range(10)]:
                doc = _decode_canonical(candidate)
                for cmd in doc.commands if doc is not None else ():
                    read += 1
                    assert type(cmd) is Command, repr(candidate)
                    assert cmd == Command(cmd.kind, cmd.id, cmd.name, cmd.age, cmd.owner_id)
        assert read > 1000

    def test_only_the_line_reader_runs_the_checks(self, monkeypatch):
        text = encode_log(store_of(have_person("p1", name="Alice", age=23),
                                   have_dog("d1", owner_id="p1", name=""), have_dog("d2")), 2020)
        built = count_checked_commands(monkeypatch)
        fast = decode_log(text)
        assert built == []
        lines = _decode_lines(text)
        assert len(built) == len(lines.commands) == 3
        assert fast == lines
        assert decode_log(text.replace("\n", "\r\n")) == lines  # not canonical: the line reader
        assert len(built) == 6


class TestEncodeModel:
    def test_empty_model_empty_document(self, base_schema):
        from evmigrate import InstanceModel

        assert encode_model(InstanceModel(base_schema)) == ""

    def test_golden_pets(self, base_schema):
        model = decode_model(data_text("pets.inst"), base_schema)
        assert encode_model(copy_model(model)) == encode_model(model) == data_text("pets.inst")

    def test_many_reference_one_line_per_target(self, pets_schema):
        model = decode_model(
            "obj p1 Person\nobj d1 Dog\nobj d2 Dog\n", pets_schema
        )
        model.set_reference(model.get("p1"), "dogs", "d1")
        model.set_reference(model.get("p1"), "dogs", "d2")
        assert encode_model(model) == (
            "obj p1 Person\n  dogs d1\n  dogs d2\nobj d1 Dog\nobj d2 Dog\n"
        )

    @pytest.mark.parametrize("brk", list(LINE_BREAKS))
    def test_line_break_written_past_the_setter_is_refused(self, base_schema, brk):
        # no line break reaches the encoder, so it cannot forge a line
        model = decode_model(data_text("pets.inst"), base_schema)
        with pytest.raises(TypeError):
            model.get("p1").attributes["name"] = f"x{brk}obj evil Person"  # past the setter
        with pytest.raises(ModelError, match="line break"):
            model.set_attribute(model.get("p1"), "name", f"x{brk}obj evil Person")
        assert encode_model(copy_model(model)) == encode_model(model) == data_text("pets.inst")

    def test_line_break_is_refused_on_a_re_render_too(self, base_schema):
        model = decode_model(data_text("pets.inst"), base_schema)
        with pytest.raises(TypeError):
            model.get("d1").references["owner"] = "p1\nobj evil Person"  # past the setter
        with pytest.raises(ModelError, match="does not exist"):
            model.set_reference(model.get("d1"), "owner", "p1\nobj evil Person")
        model.set_attribute(model.get("d1"), "name", "Odie")
        assert encode_model(copy_model(model)) == encode_model(model) == data_text("pets.inst").replace("Rex", "Odie")

    @staticmethod
    def _rendered(monkeypatch, schema):
        """The ids of the objects each class renderer renders from now on."""
        rendered = []
        renderers = codec._kernels(schema)[2]
        for class_name, render in list(renderers.items()):
            monkeypatch.setitem(renderers, class_name,
                                lambda obj, render=render: rendered.append(obj.id) or render(obj))
        return rendered

    def test_a_canonical_decode_keeps_its_text_and_renders_nothing(self, monkeypatch, pets_schema):
        rendered = self._rendered(monkeypatch, pets_schema)
        model = decode_model(PETS_INSTANCE, pets_schema)
        assert encode_model(model) == PETS_INSTANCE and rendered == []
        model.set_attribute(model.get("d1"), "name", "Odie")
        assert encode_model(model) == PETS_INSTANCE.replace("Rex", "Odie") and rendered == ["d1"]

    def test_a_line_read_model_renders_each_object_once_then_only_its_edits(self, monkeypatch, pets_schema):
        # a carriage return sends the whole text to the line reader; its
        # model keeps no text, so every encode renders every object
        rendered = self._rendered(monkeypatch, pets_schema)
        model = decode_model(PETS_INSTANCE.replace("\n", "\r\n"), pets_schema)
        assert encode_model(model) == PETS_INSTANCE and rendered == list(model.objects)
        rendered.clear()
        model.set_attribute(model.get("d1"), "name", "Odie")
        assert encode_model(model) == PETS_INSTANCE.replace("Rex", "Odie") and rendered == list(model.objects)
        assert model.blocks is None
        assert encode_model(copy_model(model)) == PETS_INSTANCE.replace("Rex", "Odie")

    def test_writes_past_the_setter_reach_the_next_encode(self, pets_schema):
        model = decode_model(PETS_INSTANCE, pets_schema)
        assert model.blocks is not None  # read by the canonical reader
        assert encode_model(copy_model(model)) == encode_model(model) == PETS_INSTANCE
        p1, d1 = model.get("p1"), model.get("d1")
        for write in (lambda: p1.attributes.__setitem__("name", "Bob"),
                      lambda: d1.attributes.pop("age"),
                      lambda: p1.references["dogs"].remove("d2")):
            with pytest.raises((TypeError, AttributeError)):
                write()  # past the setter: refused
        assert encode_model(copy_model(model)) == encode_model(model) == PETS_INSTANCE
        model.set_attribute(p1, "name", "Bob")
        model.set_attribute_text(d1, "age", "5")
        model.new_object("Dog", "d3")
        model.set_reference(p1, "dogs", "d3")
        expected = (
            "obj p1 Person\n  name Bob\n  age 23\n  dogs d1\n  dogs d2\n  dogs d3\n"
            "obj d1 Dog\n  name Rex\n  age 5\n  owner p1\nobj d2 Dog\nobj d3 Dog\n"
        )
        assert encode_model(model) == expected
        assert encode_model(model) == encode_model(copy_model(model)) == expected

    def test_untracked_model_is_rendered_in_full_every_time(self, base_schema):
        source = decode_model(data_text("pets.inst"), base_schema)
        model = InstanceModel(base_schema)
        for obj in source.objects.values():
            model.add(DynamicObject(obj.id, obj.class_name, dict(obj.attributes)))
        assert encode_model(model) == "obj p1 Person\n  name Alice\n  age 23\nobj d1 Dog\n  name Rex\n  age 4\n"
        model.set_attribute(model.get("d1"), "name", "Odie")  # the model tracks no writes
        assert "name Odie" in encode_model(model)
        assert model.blocks is None and model.unseen(ENCODE) is None

    def test_a_kept_block_cannot_go_stale(self, pets_schema):
        # no object can be put in past add, so each kept block stays the
        # render of the object the model holds under that id
        model = decode_model(PETS_INSTANCE, pets_schema)
        with pytest.raises(TypeError):
            model.objects["p1"] = DynamicObject("p1", "Person", {"name": "Zed"})
        model.set_attribute(model.get("d1"), "name", "Odie")
        assert encode_model(model) == encode_model(copy_model(model))
        assert "name Odie" in encode_model(model) and "Zed" not in encode_model(model)

    def test_an_id_cannot_be_rebound_to_forge_an_object(self, base_schema):
        model = decode_model(data_text("pets.inst"), base_schema)
        p1 = model.get("p1")
        with pytest.raises(AttributeError, match="sealed"):
            p1.id = "p1 Person\nobj evil"
        with pytest.raises(AttributeError, match="sealed"):
            p1.class_name = "Dog"
        with pytest.raises(AttributeError, match="sealed"):
            del p1.id
        text = encode_model(model)
        assert "evil" not in text and text == encode_model(copy_model(model)) == data_text("pets.inst")


def _pairs_text(objects):
    """Canonical text of ``objects`` (even) objects: the object at position
    k is person pk (k even, owning dog dk+1) or dog dk (k odd)."""
    return "".join(
        f"obj p{k} Person\n  name P{k}\n  dogs d{k + 1}\nobj d{k + 1} Dog\n  name D{k + 1}\n  owner p{k}\n"
        for k in range(0, objects, 2)
    )


def _kept_chunks(schema, chunks):
    """A kept model of exactly ``chunks`` full chunks (``_pairs_text``)."""
    return decode_model(_pairs_text(chunks * CHUNK), schema)


def _encode_rejoining(model):
    """Encode a kept model, check the text against a full render and the
    kept lengths against each object's block and each chunk's text, and
    return the chunks whose text was spliced again or opened."""
    kept = model.blocks
    before = list(kept.texts)
    text = encode_model(model)
    assert text == encode_model(copy_model(model))
    render = codec._kernels(model.schema)[2]
    assert list(kept.lengths) == [len(render[obj.class_name](obj)) for obj in model.objects.values()]
    assert list(kept.at.items()) == list(zip(model.objects.values(), range(len(model))))
    assert len(kept.texts) == -(-len(model) // CHUNK)
    for i, chunk in enumerate(kept.texts):
        assert sum(kept.lengths[i * CHUNK:(i + 1) * CHUNK]) == len(chunk)
    return [i for i, chunk in enumerate(kept.texts) if i >= len(before) or chunk is not before[i]]


class TestKeptBlocks:
    """An encode of a kept model re-joins only the chunks holding changed
    or new objects, and always agrees with a full render."""

    def test_a_decode_slices_no_block_and_an_edit_slices_only_its_chunk(self, pets_schema):
        model = decode_model(_pairs_text(2000), pets_schema)
        kept = model.blocks
        assert len(kept.texts) == 8 and sum(kept.lengths) == len(_pairs_text(2000))
        assert _encode_rejoining(model) == []
        model.set_attribute(model.get("d1007"), "name", "Odie")
        assert _encode_rejoining(model) == [1007 // CHUNK]
        assert kept.lengths[1007] == len("obj d1007 Dog\n  name Odie\n  owner p1006\n")
        assert encode_model(model) == _pairs_text(2000).replace("name D1007", "name Odie")

    def test_edits_at_chunk_edges_re_join_their_own_chunk(self, pets_schema):
        model = _kept_chunks(pets_schema, 3)
        assert len(model.blocks.texts) == 3 and _encode_rejoining(model) == []
        model.set_attribute(model.get(f"p{CHUNK}"), "name", "First")  # chunk 1's first object
        assert _encode_rejoining(model) == [1]
        model.set_attribute(model.get(f"d{2 * CHUNK - 1}"), "age", 7)  # chunk 1's last object
        assert _encode_rejoining(model) == [1]
        model.set_attribute(model.get(f"d{3 * CHUNK - 1}"), "age", 3)  # the last chunk's last object
        assert _encode_rejoining(model) == [2]
        model.set_attribute(model.get("p0"), "name", "Zero")
        model.set_attribute(model.get(f"d{3 * CHUNK - 1}"), "name", "Last")
        assert _encode_rejoining(model) == [0, 2]

    def test_an_edit_at_the_end_of_an_unsplit_chunk_keeps_the_next(self, pets_schema):
        model = _kept_chunks(pets_schema, 3)
        model.set_attribute(model.get(f"d{CHUNK - 1}"), "name", "End")  # chunk 0's last object
        model.set_attribute(model.get(f"p{2 * CHUNK}"), "name", "Start")  # chunk 2's first object
        assert _encode_rejoining(model) == [0, 2]
        assert f"owner p{CHUNK - 2}\nobj p{CHUNK} Person\n  name P{CHUNK}\n" in encode_model(model)

    def test_objects_appended_to_an_unsplit_last_chunk(self, pets_schema):
        # the last decoded chunk is not full: a new object goes into it
        model = decode_model(_pairs_text(2 * CHUNK + 10), pets_schema)
        model.new_object("Dog", "x0")
        assert _encode_rejoining(model) == [2]
        assert encode_model(model).endswith(f"owner p{2 * CHUNK + 8}\nobj x0 Dog\n")
        for k in range(1, CHUNK):  # fill chunk 2 and open chunk 3
            model.new_object("Person", f"x{k}")
        model.set_attribute(model.get("p0"), "name", "Zero")
        assert _encode_rejoining(model) == [0, 2, 3]
        assert encode_model(model).endswith(f"obj x{CHUNK - 1} Person\n")

    def test_a_decode_whose_tail_the_line_reader_read(self, pets_schema):
        # a value with two spaces before it makes the fast reader decline
        # the whole text; the line reader's model keeps none of it
        tail = "obj x0 Dog\n  name  Spaced\nobj x1 Person\n  name X1\n  dogs x0\n"
        model = decode_model(_pairs_text(CHUNK + 4) + tail, pets_schema)
        assert model.blocks is None
        assert encode_model(model) == encode_model(copy_model(model)) == (
            _pairs_text(CHUNK + 4) + tail.replace("  Spaced", " Spaced"))
        model.set_attribute(model.get("x0"), "name", "Rex")
        assert encode_model(model) == encode_model(copy_model(model)) and model.blocks is None

    @pytest.mark.parametrize("text", ["# c\n", "\n", "obj p1 Person\n\n", PETS_INSTANCE.replace("\n", "\r\n")],
                             ids=["comment", "blank", "blank-after-object", "crlf"])
    def test_foreign_marks_with_no_fast_read_object_encode_the_full_render(self, pets_schema, text):
        # a model keeps no text the fast reader did not match
        model = decode_model(text, pets_schema)
        assert encode_model(model) == encode_model(copy_model(model)) and model.blocks is None

    def test_many_reference_edits_re_join_their_chunk(self, pets_schema):
        model = _kept_chunks(pets_schema, 3)
        person = model.get(f"p{2 * CHUNK - 2}")  # chunk 1's second-to-last object
        model.set_reference(person, "dogs", "d1")  # replaces the list
        assert _encode_rejoining(model) == [1]
        assert f"obj p{2 * CHUNK - 2} Person\n  name P{2 * CHUNK - 2}\n  dogs d{2 * CHUNK - 1}\n  dogs d1\n" in encode_model(model)
        model.set_reference(person, "dogs", "d3")
        assert _encode_rejoining(model) == [1]

    def test_objects_added_at_a_chunk_boundary_open_new_chunks(self, pets_schema):
        model = _kept_chunks(pets_schema, 2)
        model.new_object("Dog", "x0")  # the first object past two full chunks
        assert _encode_rejoining(model) == [2] and len(model.blocks.texts) == 3
        assert encode_model(model).endswith(f"owner p{2 * CHUNK - 2}\nobj x0 Dog\n")
        # fill chunk 2, open chunks 3 and 4, and edit chunk 0, in one encode
        for k in range(1, 2 * CHUNK + 1):
            model.new_object("Person", f"x{k}")
        model.set_attribute(model.get("d1"), "name", "Rex")
        assert _encode_rejoining(model) == [0, 2, 3, 4]
        assert len(model.blocks.texts) == 5
        assert encode_model(model).endswith(f"obj x{2 * CHUNK} Person\n")

    def test_a_refused_write_loses_no_edit(self, pets_schema):
        # a setter refuses a line break before it writes or marks; the
        # edits marked before and after it reach the next encode
        model = _kept_chunks(pets_schema, 3)
        model.set_attribute(model.get("p0"), "name", "Before")
        bad = model.get(f"d{CHUNK + 1}")
        with pytest.raises(ModelError, match="line break"):
            model.set_attribute(bad, "name", "x\nobj evil Person")
        model.set_attribute(model.get(f"p{2 * CHUNK}"), "name", "After")
        assert _encode_rejoining(model) == [0, 2]
        assert "name Before" in encode_model(model) and "name After" in encode_model(model)
        assert "evil" not in encode_model(model)

    def test_delta_law_holds_with_chunks_of_two(self, monkeypatch):
        # the law's models are smaller than one chunk of the real size
        monkeypatch.setattr(codec, "CHUNK", 2)
        for seed in range(300):
            assert delta_case(random.Random(seed)), seed


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
        assert encode_model(copy_model(model)) == encode_model(model) == "obj p1 Person\n  name\n"


def with_edge_values(rng, model):
    """Negative ints and empty strings, which ``random_model`` does not
    draw.  (A many-reference holds each target once.)"""
    for obj in model.objects.values():
        cls = model.schema.cls(obj.class_name)
        for name, adef in cls.attributes.items():
            if rng.random() < 0.3:
                model.set_attribute(obj, name, -rng.randint(1, 99) if adef.kind == KIND_INT else "")
    return model


def perturbed_model(rng, text, class_names) -> str:
    """``text`` with one character edited or one line repeated (as
    ``perturbed`` does), one line swapped with the next or deleted, or one
    object's class renamed to another declared class."""
    lines = text.splitlines(keepends=True)
    op = rng.choice(("char", "char", "swap", "delete", "class"))
    if op == "swap" and len(lines) > 1:
        i = rng.randrange(len(lines) - 1)
        lines[i:i + 2] = lines[i + 1], lines[i]
    elif op == "delete":
        del lines[rng.randrange(len(lines))]
    elif op == "class":
        i = rng.choice([i for i, line in enumerate(lines) if line.startswith("obj ")])
        lines[i] = f"obj {lines[i].split()[1]} {rng.choice(class_names)}\n"
    else:
        return perturbed(rng, text)
    return "".join(lines)


def model_view(model):
    """Objects in model order, each with its attribute and reference maps."""
    return [(o.id, o.class_name, o.attributes, o.references) for o in model.objects.values()]


def model_outcome(decode, text, schema):
    try:
        return model_view(decode(text, schema))
    except FormatError as e:
        return ("FormatError", str(e), e.line)


class TestCanonicalModelFastPath:
    """The regular-expression reader for canonical instance files must
    agree with the line reader on every input it accepts, and decline the
    rest."""

    SCHEMAS = [load_schema(PETS_SCHEMA_TEXT, name="pets")] + [
        schema for scenario in SCENARIOS.values()
        for schema in (scenario.m1_schema, scenario.m2_schema)
    ]

    def test_agrees_with_line_reader_on_encoded_and_perturbed_models(self):
        rng = random.Random(20261019)
        taken = 0
        for _ in range(120):
            for schema in self.SCHEMAS:
                model = random_model(rng, schema)
                if rng.random() < 0.5:
                    model = with_edge_values(rng, model)
                text = encode_model(model)
                fast = _decode_model_canonical(text, schema)
                assert fast is not None, text
                assert model_view(fast) == model_outcome(_decode_model_lines, text, schema)
                for candidate in [perturbed_model(rng, text, list(schema.classes))
                                  for _ in range(30 if text else 0)]:
                    expected = model_outcome(_decode_model_lines, candidate, schema)
                    fast = _decode_model_canonical(candidate, schema)
                    if fast is not None:
                        taken += 1
                        assert model_view(fast) == expected, repr(candidate)
                    assert model_outcome(decode_model, candidate, schema) == expected, repr(candidate)
        # Edits inside values, ids and ints keep many texts canonical.
        assert taken > 4000

    def test_a_feature_line_read_as_a_comment_is_not_canonical(self):
        with pytest.raises(SchemaError, match="line 2: feature '#n' of class A may not start with '#'"):
            load_schema("class A\n  attr #n int\n  attr m int\n")
        schema = load_schema("class A\n  attr m int\n")
        text = "obj a A\n  #n 5\n  m 6\n"
        assert _decode_model_canonical(text, schema) is None
        assert decode_model(text, schema).get("a").attributes == {"m": 6}

    def test_an_integer_too_long_to_convert_is_the_line_readers_error(self, pets_schema):
        text = "obj p1 Person\n  age " + "1" * 5000 + "\n"
        assert _decode_model_canonical(text, pets_schema) is None
        with pytest.raises(FormatError, match="p1.age expects an integer") as exc:
            decode_model(text, pets_schema)
        assert exc.value.line == 2

    @pytest.mark.parametrize("edit", [
        lambda line: "# a comment\n" + line, lambda line: "  # a comment\n" + line,
        lambda line: "\n" + line, lambda line: line + " ", lambda line: line + "\r",
    ], ids=["comment", "indented-comment", "blank-line", "trailing-space", "carriage-return"])
    def test_plainly_edited_text_builds_no_object_before_the_line_reader(self, pets_schema, edit):
        lines = [line for k in range(1000) for line in
                 (f"obj p{k} Person", f"  name P {k}", f"obj d{k} Dog", f"  owner p{k}")]
        lines[-1] = edit(lines[-1])
        text = "\n".join(lines) + "\n"
        expected = model_view(_decode_model_lines(text, pets_schema))
        assert model_view(decode_model(text, pets_schema)) == expected
        assert model_view(decode_model(text.rstrip("\n"), pets_schema)) == expected

    def test_text_canonical_but_for_its_last_object_keeps_no_text(self, pets_schema):
        # the fast reader reads every object but the last, then declines
        # the whole text: the model is the line reader's and keeps no text
        text = _pairs_text(2 * CHUNK) + "obj x Dog\n  owner p0\n  name X\n"
        assert _decode_model_canonical(text, pets_schema) is None
        model = decode_model(text, pets_schema)
        assert model_view(model) == model_view(_decode_model_lines(text, pets_schema))
        assert model.blocks is None

    def test_canonical_text_never_reaches_the_line_reader(self, base_schema, pets_schema,
                                                          monkeypatch):
        def refuse(text):
            raise AssertionError("the line reader ran")

        monkeypatch.setattr(codec, "significant_lines", refuse)
        big = "".join(
            f"obj p{k} Person\n  name P {k}\n  age {k - 500}\n  dogs d{k}\n"
            f"obj d{k} Dog\n  name\n  owner p{k}\n"
            for k in range(1000)
        )
        for text, schema in ((data_text("pets.inst"), base_schema), (big, pets_schema)):
            model = decode_model(text, schema)
            assert encode_model(copy_model(model)) == encode_model(model) == text


#: per class, each feature with values the encoder writes and, drawn less
#: often, values it never writes (``007``, ``-0``) or targets it refuses
_PETS_LINES = {
    "Person": [("name", ["", " Alice", " a  b"], []), ("age", [" 23", " 0", " -5"], [" 007", " -0"]),
               ("dogs", [" d1", " d2"], [])],
    "Dog": [("name", [" Rex"], []), ("age", [" 4"], [" 04"]), ("owner", [" p1", " p2"], [" d1"])],
}


@st.composite
def pets_texts(draw):
    """Instance text for the pets schema, in the encoder's layout or near
    it: an id may repeat, and so may a feature's line (for a
    many-reference, with the same target or another)."""
    objects = draw(st.permutations([("p1", "Person"), ("p2", "Person"), ("d1", "Dog"), ("d2", "Dog")]))
    objects = objects[:draw(st.sampled_from((0, 1, 2, 3, 4, 4, 4, 4)))]
    if objects and draw(st.integers(0, 9)) == 0:
        objects.append(objects[0])
    lines = []
    for obj_id, class_name in objects:
        lines.append(f"obj {obj_id} {class_name}")
        for name, plain, edge in _PETS_LINES[class_name]:
            for _ in range(draw(st.sampled_from((0, 1, 1, 1, 1, 1, 1, 2)))):
                rare = edge and draw(st.integers(0, 3)) == 0
                lines.append(f"  {name}{draw(st.sampled_from(edge if rare else plain))}")
    return "".join(line + "\n" for line in lines)


@settings(max_examples=400)
@given(text=pets_texts())
def test_every_text_the_canonical_reader_accepts_is_what_the_encoder_writes(text):
    schema = load_schema(PETS_SCHEMA_TEXT)
    model = _decode_model_canonical(text, schema)
    if model is not None:  # a full render, and the kept blocks' encode
        assert encode_model(copy_model(model)) == encode_model(model) == text
    # whichever reader reads it, the model is the line reader's
    assert model_outcome(decode_model, text, schema) == model_outcome(_decode_model_lines, text, schema)


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
