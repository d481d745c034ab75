"""The shared editing vocabulary: HavePerson and HaveDog.

Both editors understand the same two commands; each editor executes them
against its own schema, querying at runtime which attributes exist.  A
command field left as None is UNSET: the corresponding write is skipped
(it never clears an existing value).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ModelError, SchemaError
from .metamodel import KIND_INT, KIND_STRING

if TYPE_CHECKING:
    from .editor import Editor

HAVE_PERSON = "HavePerson"
HAVE_DOG = "HaveDog"

#: kind -> (target class, wire fields in canonical order).  Dict order is
#: the canonical kind order: persons before dogs.
SPECS = {
    HAVE_PERSON: ("Person", ("id", "name", "age")),
    HAVE_DOG: ("Dog", ("id", "ownerId", "name", "age")),
}

#: canonical command order: kinds in SPECS order, then by id
_RANK = {kind: rank for rank, kind in enumerate(SPECS)}

DEFAULT_REFERENCE_YEAR = 2020


def check_reference_year(year):
    if not isinstance(year, int) or isinstance(year, bool) or year <= 0:
        raise ValueError(f"reference year must be a positive integer, got {year!r}")
    return year


@dataclass(frozen=True)
class Command:
    """Immutable edit operation; the unit of storage, exchange and replay."""

    kind: str
    id: str
    name: str | None = None
    age: int | None = None
    owner_id: str | None = None  # HaveDog only

    def __post_init__(self):
        spec = SPECS.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown command kind {self.kind!r}")
        if not self.id:
            raise ValueError("command id must be non-empty")
        if self.owner_id is not None and "ownerId" not in spec[1]:
            raise ValueError(f"ownerId is not valid on {self.kind}")

    @property
    def target_class(self) -> str:
        return SPECS[self.kind][0]


def have_person(obj_id, name=None, age=None) -> Command:
    return Command(HAVE_PERSON, obj_id, name=name, age=age)


def have_dog(obj_id, owner_id=None, name=None, age=None) -> Command:
    return Command(HAVE_DOG, obj_id, name=name, age=age, owner_id=owner_id)


def command_equals(a: Command, b: Command) -> bool:
    return a == b


def canonical_order(cmds) -> list[Command]:
    return sorted(cmds, key=lambda c: (_RANK[c.kind], c.id))


def bind(schema) -> dict:
    """Resolve, once per schema, what each kind can write.

    Returns kind -> None when the schema lacks the target class, else
    ``(class, has name, has age, has ybirth, owner target or None)``.
    An attribute of the wrong kind is rejected here, before any write.
    """
    bindings = {}
    for kind, (class_name, fields) in SPECS.items():
        if not schema.has_class(class_name):
            bindings[kind] = None
            continue
        cls = schema.cls(class_name)
        for attr, want in (("name", KIND_STRING), ("age", KIND_INT), ("ybirth", KIND_INT)):
            adef = cls.attributes.get(attr)
            if adef is not None and adef.kind != want:
                raise ModelError(f"{class_name}.{attr} is declared {adef.kind}, cannot hold {want}")
        ref = cls.references.get("owner") if "ownerId" in fields else None
        bindings[kind] = (
            class_name,
            "name" in cls.attributes,
            "age" in cls.attributes,
            "ybirth" in cls.attributes,
            ref.target if ref is not None else None,
        )
    return bindings


def run(cmd: Command, editor: Editor) -> str:
    """Execute a command against an editor's model (no store update).

    Writes are gated twice: on the command field being set and on the
    schema declaring the attribute.  When the schema carries ybirth, the
    age is stored as referenceYear - age instead of (or in addition to) a
    plain age.  Kinds were checked by ``bind``, so writes go straight to
    the attribute map."""
    binding = editor.bindings[cmd.kind]
    if binding is None:
        raise SchemaError(f"schema declares no {cmd.target_class} class")
    class_name, has_name, has_age, has_ybirth, owner_target = binding
    obj = editor.get_or_create(class_name, cmd.id)
    values = obj.attributes
    if cmd.name is not None and has_name:
        values["name"] = cmd.name
    if cmd.age is not None:
        if has_age:
            values["age"] = cmd.age
        if has_ybirth:
            values["ybirth"] = editor.reference_year - cmd.age
    if cmd.owner_id is not None and owner_target is not None:
        # Owner may not exist yet; materialize a stub so dogs can be
        # executed before their owner's HavePerson arrives.
        owner = editor.get_or_create(owner_target, cmd.owner_id)
        editor.model.set_reference(obj, "owner", owner.id)
    return cmd.id
