"""Editors: schema + instance model + event store + id registry.

An editor executes commands, merges incoming command sets, and parses a
bare object model back into the commands that would reproduce it.  The
event store keeps exactly one command per target id; a newer command for
an id replaces the older one after executing.  It also knows which of
its entries the peer editor has not been sent yet.
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


def _merge_order(cmd: Command):
    return SPECS[cmd.kind][0], cmd.id  # (target class, id)


def _kind_of(obj: DynamicObject) -> str:
    kind = _KIND_OF_CLASS.get(obj.class_name)
    if kind is None:
        raise ModelError(f"cannot parse object {obj.id!r} of class {obj.class_name!r}")
    return kind


class EventStore:
    """Commands keyed by target object id; a set, no observable order.

    The store also tracks which entries the peer editor has not seen yet:
    ``put`` marks its id unshipped, ``put_received`` (for a command that
    came from the peer) marks it shipped, and a ship sends ``unshipped()``
    and then calls ``mark_shipped()``.  By the overwrite law the peer
    needs no other entry; by the commutativity law it may apply them in
    any order.
    """

    def __init__(self):
        self._entries: dict[str, Command] = {}
        self._ordered: list[Command] | None = None  # canonical order, dropped by any put
        self._unshipped: dict[str, Command] = {}  # entries the peer lacks

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        if not isinstance(other, EventStore):
            return NotImplemented
        return self._entries == other._entries

    def get(self, obj_id) -> Command | None:
        return self._entries.get(obj_id)

    def put(self, cmd: Command):
        """Insert or replace the entry for ``cmd.id``, to be shipped."""
        self._entries[cmd.id] = cmd
        self._ordered = None
        self._unshipped[cmd.id] = cmd

    def put_received(self, cmd: Command):
        """Insert or replace the entry for ``cmd.id`` with a command the
        peer sent, so it already holds it: the id no longer ships."""
        self._entries[cmd.id] = cmd
        self._ordered = None
        if self._unshipped:
            self._unshipped.pop(cmd.id, None)

    def commands(self) -> list[Command]:
        """Snapshot in canonical (kind, id) order.  The order is kept until
        the next put, so a parse followed by an encode sorts once."""
        if self._ordered is None:
            self._ordered = canonical_order(self._entries.values())
        return list(self._ordered)

    def snapshot(self) -> dict[str, Command]:
        return dict(self._entries)

    def unshipped(self) -> EventStore:
        """The entries the peer has not seen, as a store to read: this
        store itself when that is every entry (as after a parse of a newly
        adopted model), else a new one."""
        if len(self._unshipped) == len(self._entries):
            return self
        delta = EventStore()
        delta._entries = dict(self._unshipped)
        return delta

    def mark_shipped(self):
        """The peer now holds every entry."""
        self._unshipped = {}

    def mark_unshipped(self):
        """The peer holds none of the entries, say because its store
        restarted empty."""
        self._unshipped = dict(self._entries)


class Editor:
    """One side of a migration: executes, merges, parses.

    The registry maps ids to live objects in both directions; it is what
    makes getOrCreate idempotent and what lets parsing recover the id of
    an object seen before.  A registered id need not be the object's model
    key: an object created directly in the model (say ``new Dog dog9``)
    keeps the key ``dog9`` but, on first parse, is registered, stored and
    shipped under a minted id such as ``dog1``.  ``registry`` (id ->
    object) may be read by command runners; only the editor writes it.
    """

    def __init__(self, schema: MetaModel, reference_year=DEFAULT_REFERENCE_YEAR):
        self.schema = schema
        self.reference_year = check_reference_year(reference_year)
        self.bindings = bind(schema)
        self.model = InstanceModel(schema)
        self.store = EventStore()
        self.registry: dict[str, DynamicObject] = {}
        self._id_of_object: dict[DynamicObject, str] = {}
        self._id_counters: dict[str, int] = {}

    # -- registry -----------------------------------------------------

    def _register(self, obj_id, obj):
        self.registry[obj_id] = obj
        self._id_of_object[obj] = obj_id

    def registered_id(self, obj) -> str | None:
        return self._id_of_object.get(obj)

    def get_or_create(self, class_name, obj_id) -> DynamicObject:
        """Return the registered object for (class, id), creating a fresh
        all-UNSET object on first sight.  Calling it repeatedly with one
        id always yields the same object."""
        obj = self.registry.get(obj_id)
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
        while fresh in self.registry or fresh in self.model.objects:
            counter += 1
            fresh = f"{prefix}{counter}"
        self._id_counters[obj.class_name] = counter + 1
        self._register(fresh, obj)
        return fresh

    # -- execution ----------------------------------------------------

    def execute(self, cmd: Command) -> str:
        """Run the command, then insert/replace its store entry (to be
        shipped to the peer)."""
        _commands.run(cmd, self)
        self.store.put(cmd)
        return cmd.id

    def merge_all(self, incoming):
        """Execute incoming commands in deterministic (class, id) order.

        Order does not affect the outcome for distinct-id sets, but a
        fixed order keeps transcripts reproducible.  The commands come
        from the peer, so they are stored with ``put_received``: each
        replaces any unshipped entry for its id.  The first failing
        command aborts the merge."""
        store = self.store
        for cmd in sorted(incoming, key=_merge_order):
            try:
                _commands.run(cmd, self)
            except MigrationError as e:
                raise MergeError(
                    f"merge failed on {cmd.kind} id={cmd.id!r}: {e}", command=cmd
                ) from e
            store.put_received(cmd)

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
        self.registry = dict(model.objects)
        self._id_of_object = dict(zip(model.objects.values(), model.objects))
        self._id_counters = {}

    # -- parsing ------------------------------------------------------

    def parse_model(self) -> list[Command]:
        """Derive the commands that reproduce the current model; execute
        and store those that differ from the stored ones.

        Visits classes in kind order, persons first (registered objects in
        registry insertion order, then unregistered ones in model order).
        A derived command equal to the stored one is neither run nor put
        again, so it ships only if it was already waiting to; the model
        already holds its values.  Returns the whole store in canonical
        order."""
        buckets: dict[str, list[DynamicObject]] = {kind: [] for kind in SPECS}
        for obj in self.registry.values():
            buckets[_kind_of(obj)].append(obj)
        registered = self._id_of_object
        for obj in self.model.objects.values():
            if obj not in registered:
                buckets[_kind_of(obj)].append(obj)
        store = self.store
        for kind, bucket in buckets.items():
            for obj in bucket:
                cmd, changed = self._parse(obj, kind)
                if changed:
                    _commands.run(cmd, self)
                    store.put(cmd)
        return store.commands()

    def parse(self, obj: DynamicObject) -> Command:
        """The command that reproduces one object.

        The age comes from ``age``, else from ``referenceYear - ybirth``;
        when both are set and disagree, from ``ybirth`` if only it differs
        from the stored command.  When the schema declares neither, the
        age is recovered from the command that produced this object, if
        there is one."""
        return self._parse(obj, _kind_of(obj))[0]

    def _parse(self, obj: DynamicObject, kind) -> tuple[Command, bool]:
        """The command for ``obj`` and whether it differs from the stored
        one (an unchanged object yields the stored command itself)."""
        _, has_name, has_age, has_ybirth, owner_ref = self.bindings[kind]
        obj_id = self._id_of_object.get(obj) or self.id_for(obj)
        old = self.store.get(obj_id)
        if old is not None and old.kind != kind:
            old = None
        values = obj.attributes
        name = values.get("name") if has_name else None
        if has_age or has_ybirth:
            age = values.get("age") if has_age else None
            ybirth = values.get("ybirth") if has_ybirth else None
            # with both set, ybirth wins only if age is as stored: it was not edited
            if ybirth is not None and (age is None or old is not None and age == old.age):
                age = self.reference_year - ybirth
        else:
            # The schema variant cannot hold an age; recover the value
            # from the command that produced this object, if there is one.
            age = None if old is None else old.age
        owner_id = None
        if owner_ref is not None:
            target_id = obj.references.get("owner")
            if owner_ref.many and target_id is not None:
                if len(target_id) > 1:
                    raise ModelError(
                        f"object {obj.id!r} has {len(target_id)} owners; "
                        f"{kind} carries at most one ownerId"
                    )
                target_id = target_id[0] if target_id else None
            if target_id is not None:
                target = self.model.objects[target_id]
                owner_id = self._id_of_object.get(target) or self.id_for(target)
        if old is not None and old.name == name and old.age == age and old.owner_id == owner_id:
            return old, False
        return Command(kind, obj_id, name, age, owner_id), True
