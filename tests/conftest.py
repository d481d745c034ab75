from pathlib import Path

import pytest

from evmigrate import Editor, load_schema
from evmigrate import Command

DATA = Path(__file__).parent / "data"

# schema from the file-format docs: exercises a many-reference too
PETS_SCHEMA_TEXT = """\
class Person
  attr name string
  attr age int
  ref dogs -> Dog many
class Dog
  attr name string
  attr age int
  ref owner -> Person one
"""


@pytest.fixture
def base_schema():
    return load_schema((DATA / "base.schema").read_text(), name="base")


@pytest.fixture
def ybirth_schema():
    return load_schema((DATA / "ybirth.schema").read_text(), name="ybirth")


@pytest.fixture
def dog_no_age_schema():
    return load_schema((DATA / "dog_no_age.schema").read_text(), name="dog_no_age")


@pytest.fixture
def pets_schema():
    return load_schema(PETS_SCHEMA_TEXT, name="pets")


@pytest.fixture
def base_editor(base_schema):
    return Editor(base_schema)


@pytest.fixture
def ybirth_editor(ybirth_schema):
    return Editor(ybirth_schema)


def data_text(name) -> str:
    return (DATA / name).read_text()


def count_checked_commands(monkeypatch):
    """Record the fields of every command built through ``Command``'s checks."""
    built = []
    checked_new = Command.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return checked_new(cls, *args, **kwargs)

    monkeypatch.setattr(Command, "__new__", counting_new)
    return built


def parsed(editor, obj):
    """The command ``editor.parse_model`` derives for ``obj``, from the store."""
    editor.parse_model()
    return editor.store.get(editor.id_for(obj))
