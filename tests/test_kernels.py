"""The per-schema kernels: the instance reader's build functions, the renderers and
the command runners are generated source, so names that are not Python
identifiers, or that look like Python, must reach it as data only."""

import os
import random
import re
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

import pytest

from evmigrate import (
    AttributeDef,
    FormatError,
    InstanceModel,
    MetaClass,
    MetaModel,
    MigrationSession,
    ReferenceDef,
    SchemaError,
    copy_model,
    decode_model,
    encode_model,
    migrate_backward,
    migrate_forward,
    model_equals,
)
from evmigrate import codec
from evmigrate.checks import random_model, roundtrip_case
from evmigrate.codec import _decode_model_canonical, _decode_model_lines
from evmigrate.metamodel import KIND_INT, _object
from evmigrate.sync import SCENARIOS

from conftest import patch_builds

#: characters that mean something in Python source, in f-strings and in
#: regular expressions
HOSTILE = ("'", '"', "\\", "{", "}", "(", ")", "+", ".", "*")
#: a name that would run if it were pasted into source between quotes
CODE = "x'+__import__('os').getpid()+'"


def _features(k, targets):
    """A string, an int, a one- and a many-reference (to ``targets``) and
    a feature named like code; ``k`` varies the names."""
    a, b, c = HOSTILE[k % 10], HOSTILE[(k + 3) % 10], HOSTILE[(k + 6) % 10]
    return ([AttributeDef(f"s{a}{b}{c}", "string"), AttributeDef(f"i{c}{b}{a}", "int"),
             AttributeDef(CODE, "string")],
            [ReferenceDef(f"o{b}{a}", targets[0], False), ReferenceDef(f"m{c}{a}*", targets[1], True)])


def hostile_schema(name, ybirth=False):
    """Person and Dog with the command vocabulary's features (ybirth in
    place of age, and a many owner, when ``ybirth``) and four classes with
    names built from ``HOSTILE`` and ``CODE``, one of them with no feature;
    every class but that one carries ``_features``."""
    odd = ["K'{\\}", 'L"(+).*', CODE]
    classes = []
    for k, class_name in enumerate(odd):
        attributes, references = _features(k, (odd[(k + 1) % 3], odd[(k + 2) % 3]))
        classes.append(MetaClass(class_name, attributes, references))
    classes.append(MetaClass("E.*{}()"))
    attributes, references = _features(4, ("Dog", odd[0]))
    classes.append(MetaClass("Person", [AttributeDef("name", "string"),
                                        AttributeDef("ybirth" if ybirth else "age", "int"), *attributes],
                             references))
    attributes, references = _features(5, ("Person", odd[1]))
    vocabulary = [AttributeDef("name", "string")] + ([] if ybirth else [AttributeDef("age", "int")])
    classes.append(MetaClass("Dog", vocabulary + attributes,
                             [ReferenceDef("owner", "Person", ybirth), *references]))
    return MetaModel(name, classes)


def hostile_value(rng):
    text = "".join(rng.choice((*HOSTILE, "a", "b", " ", CODE)) for _ in range(rng.randint(0, 8)))
    return text.strip()


def hostile_model(rng, schema, class_names, max_objects=12):
    """A random model of objects of ``class_names``, ids and string values
    drawn from ``HOSTILE``: every feature set with probability 0.8."""
    model = InstanceModel(schema)
    for k in range(rng.randint(0, max_objects)):
        cls = schema.classes[rng.choice(class_names)]
        obj = model.new_object(cls.name, f"{k}{rng.choice(HOSTILE)}{rng.choice(HOSTILE)}")
        for adef in cls.attributes.values():
            if rng.random() < 0.8:
                model.set_attribute(obj, adef.name, rng.randint(-150, 150) if adef.kind == KIND_INT
                                    else hostile_value(rng))
    for obj in model.objects.values():
        for rdef in schema.classes[obj.class_name].references.values():
            pool = [o.id for o in model.objects.values() if o.class_name == rdef.target]
            if pool and rng.random() < 0.8:
                for target in rng.sample(pool, k=rng.randint(1, min(2 if rdef.many else 1, len(pool)))):
                    model.set_reference(obj, rdef.name, target)
    return model


def check_codec(model):
    """The model reads back equal, and its text is read by the canonical
    reader and written again unchanged."""
    text = encode_model(model)
    back = decode_model(text, model.schema)
    assert model_equals(back, model), text
    fast = _decode_model_canonical(text, model.schema)
    assert fast is not None, text
    assert encode_model(copy_model(fast)) == encode_model(fast) == text
    assert encode_model(copy_model(back)) == encode_model(back) == text


class TestHostileNames:
    @pytest.mark.parametrize("feature", [AttributeDef("#x", "int"), ReferenceDef("#x", "A", False)],
                             ids=["attribute", "reference"])
    def test_a_feature_name_read_as_a_comment_is_refused(self, feature):
        # its line in an instance file would read as a comment
        with pytest.raises(SchemaError, match="feature '#x' of class A may not start with '#'"):
            MetaClass("A").add(feature)

    @pytest.mark.parametrize("name", ["a b", "", "name\nobj evil Person\n  age", "a\u2028b"],
                             ids=["space", "empty", "line-break", "line-separator"])
    def test_a_feature_name_of_more_or_less_than_one_token_is_refused(self, name):
        # ``encode_model`` would write it as fields or lines of its own
        for feature in (AttributeDef(name, "int"), ReferenceDef(name, "A", False)):
            with pytest.raises(SchemaError, match="must be one token"):
                MetaClass("A").add(feature)

    @pytest.mark.parametrize("name", ["a b", "", "Dog\nobj x Dog", "Dog x"],
                             ids=["space", "empty", "line-break", "trailing-token"])
    def test_a_class_name_of_more_or_less_than_one_token_is_refused(self, name):
        with pytest.raises(SchemaError, match="must be one token"):
            MetaModel("s", [MetaClass(name)])

    @pytest.mark.parametrize("ybirth", [False, True], ids=["age", "ybirth"])
    def test_every_model_reads_back_and_its_text_unchanged(self, ybirth):
        schema = hostile_schema(f"hostile-{ybirth}", ybirth)
        rng = random.Random(20261019)
        seen = Counter()
        for _ in range(150):
            model = hostile_model(rng, schema, list(schema.classes))
            check_codec(model)
            seen.update(obj.class_name for obj in model.objects.values())
        assert set(seen) == set(schema.classes)  # every class, the empty one too

    @pytest.mark.parametrize("ybirth", [False, True], ids=["identity", "ybirth"])
    def test_forward_then_backward_roundtrips(self, ybirth):
        m1_schema, m2_schema = hostile_schema("hostile-m1"), hostile_schema("hostile-m2", ybirth)
        rng = random.Random(7)
        for _ in range(80):
            model = hostile_model(rng, m1_schema, ["Person", "Dog"])
            snapshot = copy_model(model)
            session = MigrationSession.create(m1_schema, m2_schema)
            m2 = migrate_forward(session, decode_model(encode_model(model), m1_schema))
            check_codec(m2)
            assert model_equals(migrate_backward(session), snapshot)
            check_codec(session.m1.model)

    def test_a_name_that_looks_like_code_is_data(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "getpid", lambda: calls.append("ran") or 0)
        m1_schema, m2_schema = hostile_schema(CODE), hostile_schema(CODE, ybirth=True)
        rng = random.Random(3)
        model = hostile_model(rng, m1_schema, list(m1_schema.classes), max_objects=40)
        check_codec(model)
        text = encode_model(model)
        assert "obj 0" in text and f" {CODE}\n" in text and f"  {CODE} " in text
        vocabulary = hostile_model(rng, m1_schema, ["Person", "Dog"], max_objects=20)
        session = MigrationSession.create(m1_schema, m2_schema)
        migrate_forward(session, decode_model(encode_model(vocabulary), m1_schema))
        assert model_equals(migrate_backward(session), vocabulary)
        assert calls == []
        build = codec._kernels(m1_schema)[1]
        assert {f.__code__.co_filename for f in build.values()} >= {f"<evmigrate kernel {CODE}.{CODE}>"}

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_bundled_scenario_schema_passes_the_same_checks(self, name):
        scenario = SCENARIOS[name]
        rng = random.Random(name)
        for _ in range(60):
            for schema in (scenario.m1_schema, scenario.m2_schema):
                check_codec(random_model(rng, schema))
            assert roundtrip_case(rng, scenario)


class TestGeneratedCode:
    def test_kernels_are_built_on_first_use_not_at_import_or_session_creation(self):
        src = Path(codec.__file__).resolve().parent.parent
        script = (
            "import linecache, evmigrate\n"
            "def kernels(): return sorted(f for f in linecache.cache if f.startswith('<evmigrate kernel'))\n"
            "s = evmigrate.MigrationSession.for_scenario('ybirth')\n"
            "print(kernels())\n"
            "evmigrate.migrate_forward(s, evmigrate.decode_model('obj d1 Dog\\n  age 4\\n', s.m1.schema))\n"
            "print(kernels())\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout.splitlines()
        assert out[0] == "[]"
        # m1's codec kernels (the decode), m2's Dog runner (the merge)
        assert eval(out[1]) == ["<evmigrate kernel m1.Dog>", "<evmigrate kernel m1.Person>",
                                "<evmigrate kernel m2.Dog run>"]

    def test_a_traceback_shows_the_generated_line(self, pets_schema):
        render = codec._kernels(pets_schema)[2]["Dog"]
        with pytest.raises(AttributeError) as exc:
            render(None)
        frame = traceback.extract_tb(exc.value.__traceback__)[-1]
        assert frame.filename.startswith("<evmigrate kernel pets.Dog")
        assert frame.line == "[v0, v1, v2] = obj._values"

    def test_a_label_naming_another_source_gets_a_number(self):
        schemas = [MetaModel("same", [MetaClass("A", [AttributeDef(name, "int")])]) for name in "xyy"]
        names = [codec._kernels(schema)[2]["A"].__code__.co_filename for schema in schemas]
        # each is numbered from one counter, without probing the names taken
        assert names[0] == "<evmigrate kernel same.A>"
        assert all(re.fullmatch(r"<evmigrate kernel same\.A #[0-9]+>", name) for name in names[1:])
        assert len(set(names)) == 3

    def test_a_freed_kernel_leaves_no_source_behind(self):
        # 200 schemas through both caches (64 schemas each): the sources
        # of evicted kernels go with them
        src = Path(codec.__file__).resolve().parent.parent
        script = (
            "import gc, linecache\n"
            "from evmigrate import Editor, MetaModel, MetaClass, AttributeDef, codec, commands, have_person\n"
            "for n in range(200):\n"
            "    schema = MetaModel('s', [MetaClass('Person', [AttributeDef(f'a{n}', 'int')])])\n"
            "    codec._kernels(schema)\n"
            "    Editor(schema).execute(have_person('p1'))\n"
            "gc.collect()\n"
            "print(sum(f.startswith('<evmigrate kernel') for f in linecache.cache),"
            " codec._kernels.cache_info().currsize, commands.bind.cache_info().currsize)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout.split()
        sources, codecs, bindings = map(int, out)
        # one codec kernel and one Person runner per cached schema
        assert codecs == bindings == 64 and sources <= codecs + bindings


def _text(size):
    """Canonical pets text: persons, each with one dog, then the dogs."""
    persons = [f"obj p{k} Person\n  name P {k}\n  age {k % 90}\n  dogs d{k}\n" for k in range(size // 2)]
    dogs = [f"obj d{k} Dog\n  name D{k}\n  age {k % 15}\n  owner p{k}\n" for k in range(size // 2)]
    return "".join(persons + dogs)


def _outcome(decode, text, schema):
    try:
        model = decode(text, schema)
    except FormatError as e:
        return ("FormatError", str(e), e.line)
    return [(o.id, o.class_name, dict(o.attributes), dict(o.references)) for o in model.objects.values()]


class TestResume:
    """The fast reader reads the whole text or declines it, and the line
    reader then reads it all from the start: every error and line number
    is the line reader's."""

    SWAPPED = "  owner p999\n  name D999\n  age 9\n"

    def test_fields_out_of_order_in_the_last_object_build_each_object_once(self, pets_schema,
                                                                          monkeypatch):
        # the fast reader declines the text at its last object; the line
        # reader builds every object once, and the model keeps no text
        text = _text(2000)
        last = text.rindex("obj d999 Dog\n")
        text = text[:last] + "obj d999 Dog\n" + self.SWAPPED
        expected = _outcome(_decode_model_lines, text, pets_schema)
        built = Counter()
        original_new = InstanceModel.new_object
        monkeypatch.setattr(InstanceModel, "new_object", lambda model, class_name, obj_id:
                            built.update([obj_id]) or original_new(model, class_name, obj_id))
        model = decode_model(text, pets_schema)
        assert _outcome(lambda *_: model, text, pets_schema) == expected
        assert len(built) == 2000 and set(built.values()) == {1}
        assert model.blocks is None
        assert encode_model(model) == encode_model(copy_model(model)) == _text(2000)
        migrate_forward(MigrationSession.create(pets_schema, pets_schema), model)
        assert encode_model(model) == _text(2000)

    def test_a_repeated_target_declines_the_whole_text(self, pets_schema, monkeypatch):
        # a build refuses a many-reference that repeats a target, and the
        # fast reader stops there; the line reader reads the whole text and
        # adds the target once
        text = _text(400).replace("  dogs d150\n", "  dogs d150\n  dogs d150\n", 1)
        built = Counter()
        patch_builds(monkeypatch, pets_schema, lambda obj_id, *rest: built.update([obj_id]) or _object(obj_id, *rest))
        model = decode_model(text, pets_schema)
        assert len(built) == 150 and "p149" in built and "p150" not in built
        assert _outcome(lambda *_: model, text, pets_schema) == _outcome(_decode_model_lines, text, pets_schema)
        assert model.get("p150").references == {"dogs": ("d150",)} and model.blocks is None
        assert _decode_model_canonical(text, pets_schema) is None

    @pytest.mark.parametrize("edit", [
        lambda text: text + "  age x\n",                                   # a value error after
        lambda text: text + "  owner p5000\n",                             # a dangling target after
        lambda text: text.replace("  dogs d0\n", "  dogs d0\n  dogs q\n", 1),   # read fast, fails later
        lambda text: text.replace("  dogs d0\n", "  dogs q\n", 1) + "  owner p5000\n",  # both: the first
        lambda text: text + "obj p1 Person\n",                             # an id read fast, again
        lambda text: text + "   age 4\n",                                  # three spaces
        lambda text: text.replace("obj d5 Dog\n", "obj d5 Dog\n\x0c", 1),  # a line break at a boundary
        lambda text: text.replace("  age 5\n", "  age 5\n  name again\n", 1),
        lambda text: text + "obj x Cat\n",
    ], ids=["value", "target", "fast-target", "both-targets", "duplicate", "indent", "form-feed", "repeat", "class"])
    def test_every_error_and_line_number_is_the_line_readers(self, pets_schema, edit):
        text = _text(400)
        last = text.rindex("obj d199 Dog\n")
        text = edit(text[:last] + "obj d199 Dog\n" + self.SWAPPED.replace("999", "199"))
        assert _outcome(decode_model, text, pets_schema) == _outcome(_decode_model_lines, text, pets_schema)
