"""The shared editing vocabulary: HavePerson and HaveDog.

Each editor executes both commands against its own schema, through a
runner per kind generated for the schema at the kind's first run
(``bind``).  A command field left None is UNSET: its write is skipped (it
never clears a value).  A command is checked where it is built
(``Command``).  Two producers build the exact tuple of a command's
fields unchecked, from fields valid by construction: the fast log reader
(``codec._decode_canonical``, as a ``_Checked`` batch) and an editor's
parse (``Editor._parse``).  Such tuples go into an event store as they
are, which keeps exact tuples only, so the cyclic collector can stop
scanning them; they leave it as ``Command``s, and ``run`` refuses any
tuple that is not one.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import ModelError, SchemaError
from .metamodel import INT_DIGITS, KIND_INT, KIND_STRING, compile_kernel, has_line_break, int_in_bound

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
    if not int_in_bound(year):
        raise ValueError(f"reference year must have at most {INT_DIGITS} digits")
    return year


class Command(namedtuple("Command", ("kind", "id", "name", "age", "owner_id"))):
    """Immutable edit operation; the unit of exchange and replay.

    A tuple of five atoms.  Every public way to build one (the call,
    ``_make``, ``_replace``, pickle, ``copy``) runs ``__new__``'s checks;
    only ``_trusted`` skips them, to hand out the exact tuples an event
    store keeps, which a checked producer built."""

    __slots__ = ()

    def __new__(cls, kind, id, name=None, age=None, owner_id=None):
        if kind not in SPECS:
            raise ValueError(f"unknown command kind {kind!r}")
        if owner_id is not None and kind not in _OWNED_KINDS:
            raise ValueError(f"ownerId is not valid on {kind}")
        # a runner writes what it is given: each field must be of its kind
        if (type(id) is not str or name is not None and type(name) is not str
                or age is not None and type(age) is not int
                or owner_id is not None and type(owner_id) is not str):
            raise ValueError(f"ids and name must be strings and age an integer, got "
                             f"id {id!r}, name {name!r}, age {age!r}, ownerId {owner_id!r}")
        if age is not None and not int_in_bound(age):
            raise ValueError(f"age must have at most {INT_DIGITS} digits")
        if id.split() != [id] or owner_id is not None and owner_id.split() != [owner_id]:
            raise ValueError(f"id and ownerId must be one token, non-empty and with no line break or other "
                             f"whitespace, got id {id!r}, ownerId {owner_id!r}")
        if name and has_line_break(name):
            raise ValueError(f"no line break may be in name {name!r}")
        return tuple.__new__(cls, (kind, id, name, age, owner_id))

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` builds through it

    def __reduce__(self):
        return Command, tuple(self)

    @property
    def target_class(self) -> str:
        return SPECS[self.kind][0]


#: ``Command`` without its checks: ``_trusted((kind, id, name, age, owner_id))``
_trusted = partial(tuple.__new__, Command)


class _Checked(tuple):
    """Exact tuples in ``Command`` field order, each as valid as a
    ``Command``: the fast log reader's output, which ``Editor.merge_all``
    runs and stores as it is."""

    __slots__ = ()


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
    ``(class, the positions of name, age and ybirth in its objects' values
    (None where undeclared), owner ReferenceDef or None, its position,
    runner)``; ``run`` calls the runner, generated at its first run.  An
    attribute of the wrong kind is rejected here, before any write.
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
        positions = []
        for attr, want in (("name", KIND_STRING), ("age", KIND_INT), ("ybirth", KIND_INT)):
            adef = cls.attributes.get(attr)
            if adef is not None and adef.kind != want:
                raise ModelError(f"{class_name}.{attr} is declared {adef.kind}, cannot hold {want}")
            positions.append(None if adef is None else cls.slots[attr])
        owner = cls.references.get("owner") if "ownerId" in fields else None
        bindings[kind] = (class_name, *positions, owner, None if owner is None else cls.slots["owner"],
                          partial(_first_run, schema, bindings, kind))
    return MappingProxyType(bindings)


def run(cmd: Command, editor: Editor) -> str:
    """Execute a command against an editor's model (no store update),
    through its kind's runner in the editor's bindings (see ``bind``)."""
    binding = editor.bindings[cmd.kind]  # a plain tuple is no command: it has no kind
    if binding is None:
        raise SchemaError(f"schema declares no {cmd.target_class} class")
    return binding[-1](cmd, editor)


def _first_run(schema, bindings, kind, cmd, editor):
    """Generate the kind's runner, put it in its binding and run it."""
    binding = bindings[kind]
    bindings[kind] = (*binding[:-1], _runner(schema, *binding[:-1]))
    return bindings[kind][-1](cmd, editor)


def _runner(schema, class_name, name_at, age_at, ybirth_at, owner_ref, owner_at):
    """The generated runner of one kind on one schema.  It writes each set
    field the class declares, ybirth as referenceYear - age (refused if
    it would leave the int bound, before anything is written), at its
    position: into a new object, built complete and owned by the model
    (``_object`` with its ``_ref``) and admitted under its id (a checked
    or trusted command holds values of the declared kinds), or into a new
    tuple of the object's values, marking the object even if nothing
    changed (its next store entry changes what a parse derives).
    Ids are looked up in the model while ``add`` took in none of its
    objects (see ``Editor``).
    Then the owner, made a stub if need be, so dogs may run before their
    owner's HavePerson: built and admitted as a new object is while
    the model took in no object through ``add``, else through
    ``Editor.get_or_create``, which refuses what it refuses.  Names
    reach the source as ``repr`` literals."""
    cls = schema.classes[class_name]
    new, old = ["None"] * len(cls.slots), [f"v[{k}]" for k in range(len(cls.slots))]
    for at, arg, value in ((name_at, "name", "name"), (age_at, "age", "age"),
                           (ybirth_at, "age", "editor.reference_year - age")):
        if at is not None:
            new[at] = value if value == arg else f"None if {arg} is None else {value}"
            old[at] = f"v[{at}] if {arg} is None else {value}"
    owner = [] if owner_ref is None else [
        "    if owner_id is not None:",
        "        owner = editor._lookup(owner_id) if model.added else model._objects.get(owner_id)",
        f"        if owner is None or owner.class_name != {owner_ref.target!r}:",
        "            if owner is None and not model.added:  # a stub as get_or_create makes it",
        f"                owner = model._admit(_object(owner_id, {owner_ref.target!r}, "
        f"({'None, ' * len(schema.classes[owner_ref.target].slots)}), TARGET, model._ref))",
        "            else:",
        f"                owner = editor.get_or_create({owner_ref.target!r}, owner_id)",
        "        model._link(obj, OWNER, owner.id)" if owner_ref.many else
        f"        v = obj._values\n        _set_values(obj, ("
        f"{''.join('owner.id, ' if k == owner_at else f'v[{k}], ' for k in range(len(cls.slots)))}))"]
    bound = [] if ybirth_at is None else [
        "    if age is not None and not int_in_bound(editor.reference_year - age):",
        f"        raise ModelError(f'{{obj_id}}.ybirth = referenceYear - age would have more than {INT_DIGITS} digits')"]
    source = "\n".join([
        "def run(cmd, editor):",
        "    _, obj_id, name, age, owner_id = cmd", *bound,
        "    model = editor.model",
        "    obj = editor._lookup(obj_id) if model.added else model._objects.get(obj_id)",
        f"    if obj is not None and obj.class_name != {class_name!r}:",
        f"        editor.get_or_create({class_name!r}, obj_id)  # refuses the class",
        "    if obj is None:",
        f"        obj = model._admit(_object(obj_id, {class_name!r}, ({''.join(f'{v}, ' for v in new)}), LAYOUT, model._ref))",
        "    else:",
        f"        v = obj._values\n        _set_values(obj, ({''.join(f'{v}, ' for v in old)}))",
        "        for unseen in model.readers.values():\n            unseen[obj] = None", *owner,
        "    return obj_id", ""])
    return compile_kernel(f"{schema.name}.{class_name} run", source, {
        "ModelError": ModelError, "int_in_bound": int_in_bound,
        "OWNER": owner_ref, "LAYOUT": cls, "TARGET": owner_ref and schema.classes[owner_ref.target]})["run"]
