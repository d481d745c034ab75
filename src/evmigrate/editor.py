"""Editors: schema + instance model + event store + id registry.

An editor executes commands, merges incoming command sets, and parses a
bare object model back into the commands that would reproduce it.  The
event store keeps exactly one command per target id; a newer command for
an id replaces the older one after executing.
"""

from __future__ import annotations

from . import commands as _commands
from .commands import (
    SPECS,
    Command,
    bind,
    canonical_order,
    check_reference_year,
    DEFAULT_REFERENCE_YEAR,
)
from .errors import MergeError, MigrationError, ModelError
from .metamodel import DynamicObject, InstanceModel, MetaModel

#: class name -> the command kind that targets it
_KIND_OF_CLASS = {class_name: kind for kind, (class_name, _) in SPECS.items()}


def _kind_of(obj: DynamicObject) -> str:
    kind = _KIND_OF_CLASS.get(obj.class_name)
    if kind is None:
        raise ModelError(f"cannot parse object {obj.id!r} of class {obj.class_name!r}")
    return kind


class EventStore:
    """Commands keyed by target object id; a set, no observable order."""

    def __init__(self):
        self._entries: dict[str, Command] = {}

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        if not isinstance(other, EventStore):
            return NotImplemented
        return self._entries == other._entries

    def get(self, obj_id) -> Command | None:
        return self._entries.get(obj_id)

    def put(self, cmd: Command):
        self._entries[cmd.id] = cmd

    def commands(self) -> list[Command]:
        """Snapshot in canonical (kind, id) order."""
        return canonical_order(self._entries.values())

    def snapshot(self) -> dict[str, Command]:
        return dict(self._entries)


class Editor:
    """One side of a migration: executes, merges, parses.

    The registry maps ids to live objects in both directions; it is what
    makes getOrCreate idempotent and what lets parsing recover the id of
    an object seen before.  A registered id need not be the object's model
    key: an object created directly in the model (say ``new Dog dog9``)
    keeps the key ``dog9`` but, on first parse, is registered, stored and
    shipped under a minted id such as ``dog1``.
    """

    def __init__(self, schema: MetaModel, reference_year=DEFAULT_REFERENCE_YEAR):
        self.schema = schema
        self.reference_year = check_reference_year(reference_year)
        self.bindings = bind(schema)
        self.model = InstanceModel(schema)
        self.store = EventStore()
        self._objects: dict[str, DynamicObject] = {}
        self._id_of_object: dict[DynamicObject, str] = {}
        self._id_counters: dict[str, int] = {}

    # -- registry -----------------------------------------------------

    def _register(self, obj_id, obj):
        self._objects[obj_id] = obj
        self._id_of_object[obj] = obj_id

    def registered_id(self, obj) -> str | None:
        return self._id_of_object.get(obj)

    def get_or_create(self, class_name, obj_id) -> DynamicObject:
        """Return the registered object for (class, id), creating a fresh
        all-UNSET object on first sight.  Calling it repeatedly with one
        id always yields the same object."""
        obj = self._objects.get(obj_id)
        if obj is not None:
            if obj.class_name != class_name:
                raise ModelError(
                    f"id {obj_id!r} already belongs to class {obj.class_name}, "
                    f"requested {class_name}"
                )
            return obj
        obj = self.model.new_object(class_name, obj_id)
        self._register(obj_id, obj)
        return obj

    def id_for(self, obj: DynamicObject) -> str:
        """Registered id of a model object, minting a fresh one if absent.

        Fresh ids are `<lowercased class><counter>` with per-class counters
        starting at 1, skipping anything already registered or present in
        the model."""
        known = self._id_of_object.get(obj)
        if known is not None:
            return known
        if self.model.objects.get(obj.id) is not obj:
            raise ModelError(f"object {obj.id!r} does not belong to this editor's model")
        prefix = obj.class_name.lower()
        counter = self._id_counters.get(obj.class_name, 1)
        fresh = f"{prefix}{counter}"
        while fresh in self._objects or fresh in self.model.objects:
            counter += 1
            fresh = f"{prefix}{counter}"
        self._id_counters[obj.class_name] = counter + 1
        self._register(fresh, obj)
        return fresh

    # -- execution ----------------------------------------------------

    def execute(self, cmd: Command) -> str:
        """Run the command, then insert/replace its store entry."""
        _commands.run(cmd, self)
        self.store.put(cmd)
        return cmd.id

    def merge_all(self, incoming):
        """Execute incoming commands in deterministic (class, id) order.

        Order does not affect the outcome for distinct-id sets, but a
        fixed order keeps transcripts reproducible.  The first failing
        command aborts the merge."""
        batch = sorted(incoming, key=lambda c: (c.target_class, c.id))
        for cmd in batch:
            try:
                self.execute(cmd)
            except MigrationError as e:
                raise MergeError(
                    f"merge failed on {cmd.kind} id={cmd.id!r}: {e}", command=cmd
                ) from e

    # -- adoption -----------------------------------------------------

    def adopt_model(self, model: InstanceModel):
        """Take ownership of an externally built model.

        Resets store and registry, validates the objects against this
        editor's schema, and registers every object under its own id."""
        probe = InstanceModel(self.schema)
        probe.objects = model.objects
        probe.validate()
        model.schema = self.schema
        self.model = model
        self.store = EventStore()
        self._objects = dict(model.objects)
        self._id_of_object = {obj: obj_id for obj_id, obj in model.objects.items()}
        self._id_counters = {}

    # -- parsing ------------------------------------------------------

    def parse_model(self) -> list[Command]:
        """Derive and execute the commands that reproduce the current model.

        Visits classes in kind order, persons first (registered objects in
        registry insertion order, then unregistered ones in model order),
        executes each derived command, and returns the resulting store
        contents."""
        buckets: dict[str, list[DynamicObject]] = {kind: [] for kind in SPECS}
        unregistered = [o for o in self.model.objects.values() if o not in self._id_of_object]
        for obj in [*self._objects.values(), *unregistered]:
            buckets[_kind_of(obj)].append(obj)
        for bucket in buckets.values():
            for obj in bucket:
                self.execute(self.parse(obj))
        return self.store.commands()

    def parse(self, obj: DynamicObject) -> Command:
        """The command that reproduces one object.

        The age comes from ``age``, else from ``referenceYear - ybirth``;
        when the schema declares neither, it is recovered from the command
        that produced this object, if there is one."""
        kind = _kind_of(obj)
        _, has_name, has_age, has_ybirth, owner_target = self.bindings[kind]
        obj_id = self.id_for(obj)
        values = obj.attributes
        name = values.get("name") if has_name else None
        if has_age or has_ybirth:
            age = values.get("age") if has_age else None
            if age is None and has_ybirth and values.get("ybirth") is not None:
                age = self.reference_year - values["ybirth"]
        else:
            # The schema variant cannot hold an age; recover the value
            # from the command that produced this object, if there is one.
            old = self.store.get(obj_id)
            age = old.age if old is not None and old.kind == kind else None
        owner_id = None
        if owner_target is not None:
            target_id = obj.references.get("owner")
            if target_id is not None:
                owner_id = self.id_for(self.model.objects[target_id])
        return Command(kind, obj_id, name=name, age=age, owner_id=owner_id)
