"""The shared editing vocabulary: HavePerson and HaveDog.

Both editors understand the same two commands; each editor executes them
against its own schema, through a runner per kind that ``bind`` makes once
per schema.  A command field left as None is UNSET: the corresponding
write is skipped (it never clears an existing value).  A command is
checked where it is built (``Command``); only the fast log reader and an
editor's parse build one unchecked, from fields valid by construction.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from operator import itemgetter
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

_id_of = itemgetter(1)  # sort key of commands within one kind: the id


def check_reference_year(year):
    if not isinstance(year, int) or isinstance(year, bool) or year <= 0:
        raise ValueError(f"reference year must be a positive integer, got {year!r}")
    return year


class Command(namedtuple("Command", ("kind", "id", "name", "age", "owner_id"))):
    """Immutable edit operation; the unit of storage, exchange and replay.

    A tuple of five atoms.  Every public way to build one (the call,
    ``_make``, ``_replace``, pickle, ``copy``) runs ``__new__``'s checks;
    only ``_trusted`` skips them, for ``codec._decode_canonical`` and
    ``Editor._parse``, whose fields are valid by construction."""

    __slots__ = ()

    def __new__(cls, kind, id, name=None, age=None, owner_id=None):
        if kind not in SPECS:
            raise ValueError(f"unknown command kind {kind!r}")
        if not id:
            raise ValueError("command id must be non-empty")
        if owner_id is not None and kind not in _OWNED_KINDS:
            raise ValueError(f"ownerId is not valid on {kind}")
        # a runner writes what it is given: each field must be of its kind
        if (type(id) is not str or name is not None and type(name) is not str
                or age is not None and type(age) is not int
                or owner_id is not None and type(owner_id) is not str):
            raise ValueError(f"ids and name must be strings and age an integer, got "
                             f"id {id!r}, name {name!r}, age {age!r}, ownerId {owner_id!r}")
        text = f"{id}{name or ''}{owner_id or ''}"
        if not text.isprintable() and has_line_break(text):  # printable text needs no split
            raise ValueError(f"no line break may be in id {id!r}, name {name!r} or ownerId {owner_id!r}")
        return tuple.__new__(cls, (kind, id, name, age, owner_id))

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` builds through it

    def __reduce__(self):
        return Command, tuple(self)

    @property
    def target_class(self) -> str:
        return SPECS[self.kind][0]


#: ``Command`` without its checks: ``_trusted((kind, id, name, age, owner_id))``
_trusted = partial(tuple.__new__, Command)


def have_person(obj_id, name=None, age=None) -> Command:
    return Command(HAVE_PERSON, obj_id, name, age)


def have_dog(obj_id, owner_id=None, name=None, age=None) -> Command:
    return Command(HAVE_DOG, obj_id, name, age, owner_id)


def canonical_order(cmds, kinds=SPECS) -> list[Command]:
    """Kinds in the order of ``kinds`` (SPECS order), each sorted by id.

    Grouping by kind and sorting on the id strings themselves builds no
    key tuple per command: a store-wide sort makes no garbage for the
    cyclic collector, so it does not bring on a full collection in the
    middle of a sync."""
    groups: dict[str, list[Command]] = {kind: [] for kind in kinds}
    for cmd in cmds:
        groups[cmd[0]].append(cmd)
    ordered = []
    for group in groups.values():
        group.sort(key=_id_of)
        ordered += group
    return ordered


_MERGE_KINDS = sorted(SPECS, key=lambda kind: SPECS[kind][0])  # by target class


def merge_order(cmds) -> list[Command]:
    """(target class, id) order, the order ``Editor.merge_all`` runs in;
    a list of at most one command is copied as it is."""
    return list(cmds) if len(cmds) < 2 else canonical_order(cmds, _MERGE_KINDS)


@lru_cache(maxsize=64)
def bind(schema) -> MappingProxyType:
    """Resolve, once per schema, what each kind can write.

    Returns kind -> None when the schema lacks the target class, else
    ``(class, has name, has age, has ybirth, owner ReferenceDef or None,
    runner)``; ``run`` calls the runner.  An attribute of the wrong kind
    is rejected here, before any write.  Schemas are immutable in use and
    hash by identity, so the result is cached per schema and shared,
    read-only, by its editors; a rejected schema is not cached and fails
    again on every call.
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
        decisions = (
            class_name,
            "name" in cls.attributes,
            "age" in cls.attributes,
            "ybirth" in cls.attributes,
            cls.references.get("owner") if "ownerId" in fields else None,
        )
        bindings[kind] = (*decisions, _runner(*decisions))
    return MappingProxyType(bindings)


def run(cmd: Command, editor: Editor) -> str:
    """Execute a command against an editor's model (no store update),
    through its kind's runner in the editor's bindings (see ``bind``)."""
    binding = editor.bindings[cmd.kind]  # a plain tuple is no command: it has no kind
    if binding is None:
        raise SchemaError(f"schema declares no {cmd.target_class} class")
    return binding[5](cmd, editor)


def _runner(class_name, has_name, has_age, has_ybirth, owner_ref):
    """The runner of one kind on one schema: it writes each field that is
    set and that the class declares, ybirth as referenceYear - age.  A
    checked command holds values of the declared kinds and its owner is
    made here, so it writes the object's dicts itself and marks the
    object, even when nothing was written: the store entry the caller
    puts next changes what a parse derives from it."""
    owner_class = owner_ref and owner_ref.target

    def runner(cmd, editor):
        _, obj_id, name, age, owner_id = cmd
        registry = editor.registry
        obj = registry.get(obj_id)
        if obj is None or obj.class_name != class_name:
            obj = editor.get_or_create(class_name, obj_id)  # creates it, or rejects the class
        values = obj._attributes
        if name is not None and has_name:
            values["name"] = name
        if age is not None:
            if has_age:
                values["age"] = age
            if has_ybirth:
                values["ybirth"] = editor.reference_year - age
        if owner_id is not None and owner_ref is not None:
            # Owner may not exist yet; materialize a stub so dogs can be
            # executed before their owner's HavePerson arrives.
            owner = registry.get(owner_id)
            if owner is None or owner.class_name != owner_class:
                owner = editor.get_or_create(owner_class, owner_id)
            if owner_ref.many:
                editor.model._link(obj, owner_ref, owner.id)
            else:
                obj._references["owner"] = owner.id
        for unseen in editor.model.readers.values():  # ``InstanceModel.mark``, inline
            unseen[obj] = None
        return obj_id

    return runner
