"""The shared editing vocabulary: HavePerson and HaveDog.

Both editors understand the same two commands; each editor executes them
against its own schema, querying at runtime which attributes exist.  A
command field left as None is UNSET: the corresponding write is skipped
(it never clears an existing value).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import ModelError, SchemaError
from .metamodel import KIND_INT, KIND_STRING, has_line_break

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

#: target class -> the command kind that targets it
KIND_OF_CLASS = {class_name: kind for kind, (class_name, _) in SPECS.items()}

#: the kinds whose wire fields include ownerId
_OWNED_KINDS = frozenset(kind for kind, (_, fields) in SPECS.items() if "ownerId" in fields)

DEFAULT_REFERENCE_YEAR = 2020

_set = object.__setattr__  # fills a frozen dataclass's fields
#: model writes that ``run`` marks itself
_update, _set_item = dict.update, dict.__setitem__
_id_of = attrgetter("id")  # sort key of commands within one kind


def check_reference_year(year):
    if not isinstance(year, int) or isinstance(year, bool) or year <= 0:
        raise ValueError(f"reference year must be a positive integer, got {year!r}")
    return year


@dataclass(frozen=True, init=False, slots=True)
class Command:
    """Immutable edit operation; the unit of storage, exchange and replay."""

    kind: str
    id: str
    name: str | None = None
    age: int | None = None
    owner_id: str | None = None  # HaveDog only

    def __init__(self, kind, id, name=None, age=None, owner_id=None):
        # Written out because every parse and decode builds commands: the
        # checks run inline, not in a __post_init__ call, and slots keep
        # each command small and quick to read.
        if kind not in SPECS:
            raise ValueError(f"unknown command kind {kind!r}")
        if not id:
            raise ValueError("command id must be non-empty")
        if owner_id is not None and kind not in _OWNED_KINDS:
            raise ValueError(f"ownerId is not valid on {kind}")
        text = f"{id}{name or ''}{owner_id or ''}"
        if not text.isprintable() and has_line_break(text):  # printable text needs no split
            raise ValueError(f"no line break may be in id {id!r}, name {name!r} or ownerId {owner_id!r}")
        _set(self, "kind", kind)
        _set(self, "id", id)
        _set(self, "name", name)
        _set(self, "age", age)
        _set(self, "owner_id", owner_id)

    @property
    def target_class(self) -> str:
        return SPECS[self.kind][0]


def have_person(obj_id, name=None, age=None) -> Command:
    return Command(HAVE_PERSON, obj_id, name, age)


def have_dog(obj_id, owner_id=None, name=None, age=None) -> Command:
    return Command(HAVE_DOG, obj_id, name, age, owner_id)


def canonical_order(cmds) -> list[Command]:
    """Kinds in SPECS order, each sorted by id.

    Grouping by kind and sorting on the id strings themselves builds no
    key tuple per command: a store-wide sort makes no garbage for the
    cyclic collector, so it does not bring on a full collection in the
    middle of a sync."""
    groups: dict[str, list[Command]] = {kind: [] for kind in SPECS}
    for cmd in cmds:
        groups[cmd.kind].append(cmd)
    ordered = []
    for group in groups.values():
        group.sort(key=_id_of)
        ordered += group
    return ordered


@lru_cache(maxsize=64)
def bind(schema) -> MappingProxyType:
    """Resolve, once per schema, what each kind can write.

    Returns kind -> None when the schema lacks the target class, else
    ``(class, has name, has age, has ybirth, owner ReferenceDef or None)``.
    An attribute of the wrong kind is rejected here, before any write.
    Schemas are immutable in use and hash by identity, so the result is
    cached per schema and shared, read-only, by its editors; a rejected
    schema is not cached and fails again on every call.
    """
    bindings = {}
    for kind, (class_name, fields) in SPECS.items():
        cls = schema.classes.get(class_name)
        if cls is None:
            bindings[kind] = None
            continue
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
            ref,
        )
    return MappingProxyType(bindings)


def run(cmd: Command, editor: Editor) -> str:
    """Execute a command against an editor's model (no store update).

    Writes are gated twice: on the command field being set and on the
    schema declaring the attribute.  When the schema carries ybirth, the
    age is stored as referenceYear - age instead of (or in addition to) a
    plain age.  Kinds were checked by ``bind``, so writes go straight to
    the attribute map.  A model that keeps marks (see
    ``InstanceModel.seen``) gets them through one plain ``dict.update``,
    not through its tracked mapping write by write, and the object is
    then marked once, even when nothing was written: the store entry the
    caller puts next changes what a parse derives from it."""
    binding = editor.bindings[cmd.kind]
    if binding is None:
        raise SchemaError(f"schema declares no {cmd.target_class} class")
    class_name, has_name, has_age, has_ybirth, owner_ref = binding
    registry = editor.registry
    obj = registry.get(cmd.id)
    if obj is None or obj.class_name != class_name:
        obj = editor.get_or_create(class_name, cmd.id)  # creates it, or rejects the class
    model = editor.model
    tracking = bool(model.readers)
    values = {} if tracking else obj.attributes
    if cmd.name is not None and has_name:
        values["name"] = cmd.name
    if cmd.age is not None:
        if has_age:
            values["age"] = cmd.age
        if has_ybirth:
            values["ybirth"] = editor.reference_year - cmd.age
    if tracking:
        _update(obj.attributes, values)
    if cmd.owner_id is not None and owner_ref is not None:
        # Owner may not exist yet; materialize a stub so dogs can be
        # executed before their owner's HavePerson arrives.
        owner = registry.get(cmd.owner_id)
        if owner is None or owner.class_name != owner_ref.target:
            owner = editor.get_or_create(owner_ref.target, cmd.owner_id)
        if owner_ref.many:
            model.set_reference(obj, "owner", owner.id)
        else:
            _set_item(obj.references, "owner", owner.id)
    if tracking:
        model.mark(obj)
    return cmd.id
