"""Editors: schema + instance model + event store + id registry.

An editor executes commands, merges incoming command sets, and parses a
bare object model back into the commands that would reproduce it.  The
event store keeps exactly one command per target id; a newer command for
an id replaces the older one after executing.  It also knows which of
its entries the peer editor has not been sent yet.
"""

from __future__ import annotations

from functools import lru_cache

from . import commands as _commands
from .commands import (
    KIND_OF_CLASS,
    SPECS,
    Command,
    _trusted,
    bind,
    canonical_order,
    check_reference_year,
    merge_order,
    DEFAULT_REFERENCE_YEAR,
)
from .errors import MergeError, MigrationError, ModelError
from .metamodel import DynamicObject, InstanceModel, MetaModel, has_line_break

#: the model reader ``Editor.parse_model`` keeps its place under
PARSE = "parse"


@lru_cache(maxsize=64)
def _holds_every_field(schema) -> bool:
    """Whether every field a command carries lands in a model of
    ``schema``, so an object a command built derives that command again."""
    return all(
        binding is None
        or (binding[1] or "name" not in fields)
        and (binding[4] is not None or "ownerId" not in fields)
        for binding, (_, fields) in zip(bind(schema).values(), SPECS.values())
    )


def _kind_of(obj: DynamicObject) -> str:
    kind = KIND_OF_CLASS.get(obj.class_name)
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
        self._unshipped: dict[str, Command] = {}  # entries the peer lacks

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def __eq__(self, other):
        if not isinstance(other, EventStore):
            return NotImplemented
        return self._entries == other._entries

    def get(self, obj_id) -> Command | None:
        return self._entries.get(obj_id)

    def put(self, cmd: Command):
        """Insert or replace the entry for ``cmd.id``, to be shipped."""
        self._entries[cmd.id] = cmd
        self._unshipped[cmd.id] = cmd

    def put_received(self, *cmds: Command):
        """Insert or replace the entry for each ``cmd.id`` with a command
        the peer sent, so it already holds it: the id no longer ships."""
        entries, unshipped = self._entries, self._unshipped
        for cmd in cmds:
            entries[cmd[1]] = cmd
        if unshipped:
            for cmd in cmds:
                unshipped.pop(cmd[1], None)

    def commands(self) -> list[Command]:
        """Snapshot in canonical (kind, id) order, sorted on each call."""
        return canonical_order(self._entries.values())

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
        if has_line_break(fresh):  # a class built in code may have any name
            raise ModelError(f"a minted id may hold no line break, got {fresh!r}")
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
        fixed order keeps transcripts reproducible (``merge_order``: no
        key per command).  The commands come from the peer, so those that
        ran are stored with ``put_received``: each replaces any unshipped
        entry for its id.  The first failing command aborts the merge.

        A merge into an empty editor (the forward's, into m2) builds each
        object from its own command alone.  If the schema holds every
        field a command carries and no owner stub lacks its own command,
        each object derives its stored command again, so the parse starts
        tracking here and the first backward visits only what changed."""
        store, model = self.store, self.model
        ordered = merge_order(incoming)
        first = not (store or model.objects or self.registry) and _holds_every_field(self.schema)
        ran = 0
        try:
            for cmd in ordered:
                _commands.run(cmd, self)
                ran += 1
        except MigrationError as e:
            raise MergeError(
                f"merge failed on {cmd.kind} id={cmd.id!r}: {e}", command=cmd
            ) from e
        finally:
            store.put_received(*ordered[:ran])
        if first and len(ordered) == len(store) == len(model.objects):
            model.seen(PARSE)

    # -- adoption -----------------------------------------------------

    def adopt_model(self, model: InstanceModel):
        """Take ownership of an externally built model.

        Resets store and registry, marks every object for the next parse
        (its reader restarts, see ``InstanceModel.unseen``) and registers
        every object under its own id.  A model is valid against its own
        schema at all times, so it is validated only when that schema is
        not this editor's: then against this editor's, and every object is
        marked for every reader."""
        if model.schema is not self.schema:
            model.validate(self.schema)
            model.schema = self.schema
            model.mark_all()
        model.readers.pop(PARSE, None)
        self.model = model
        self.store = EventStore()
        self.registry = model.objects.copy()
        self._id_of_object = dict(zip(model.objects.values(), model.objects))
        self._id_counters = {}

    # -- parsing ------------------------------------------------------

    def parse_model(self) -> EventStore:
        """Derive the commands that reproduce the current model; store
        those that differ from the stored ones, and return the store.

        Visits the objects the model marked since the last parse (all of
        them on the first, and on the second if the first started from an
        empty store), persons first, each kind in the order first
        marked, which is model order for objects added since: new ids are
        minted in that order (objects enter only through ``add``, which
        marks them).  An object's command depends only on its own
        values, its own store entry and its owner's registered id, which
        never changes, so an unmarked object would derive its stored
        command again.  A derived command equal to the stored one is
        neither run nor put again, so it ships only if it was already
        waiting to.  A changed command runs only where its class declares
        both age and ybirth: the one not read then follows the other.  Any
        other run would write back the values it was read from."""
        model = self.model
        visit = model.unseen(PARSE)
        # The first parse from an empty store (after adoption) derives
        # every object anyway, and the forward re-adopts before parsing
        # again: tracking writes for it would not pay.
        track = visit is not None or len(self.store) > 0
        if visit is None:
            visit = model.objects.values()
        buckets: dict[str, list[DynamicObject]] = {kind: [] for kind in SPECS}
        for obj in visit:
            buckets[KIND_OF_CLASS.get(obj.class_name) or _kind_of(obj)].append(obj)
        store = self.store
        for kind, bucket in buckets.items():
            runs = bucket and all(self.bindings[kind][2:4])  # has age, has ybirth
            for obj in bucket:
                cmd, changed = self._parse(obj, kind)
                if changed:
                    if runs:
                        _commands.run(cmd, self)
                    store.put(cmd)
        if track:  # the runs above re-marked what they wrote; it derives its stored command
            model.seen(PARSE)
        return store

    def _parse(self, obj: DynamicObject, kind) -> tuple[Command, bool]:
        """The command that reproduces ``obj``, and whether it differs
        from the stored one (an unchanged object yields the stored command
        itself).

        The age comes from ``age``, else from ``referenceYear - ybirth``;
        when both are set and disagree, from ``ybirth`` if only it differs
        from the stored command.  When the schema declares neither, the
        age is recovered from the command that produced this object, if
        there is one.  The command is built unchecked: the model checked
        every value and target it holds, and its ids come from the model
        or from ``id_for``."""
        _, has_name, has_age, has_ybirth, owner_ref, _ = self.bindings[kind]
        obj_id = self._id_of_object.get(obj) or self.id_for(obj)
        old = self.store._entries.get(obj_id)
        if old is not None and old[0] != kind:
            old = None
        values = obj._attributes
        name = values.get("name") if has_name else None
        if has_age or has_ybirth:
            age = values.get("age") if has_age else None
            ybirth = values.get("ybirth") if has_ybirth else None
            # with both set, ybirth wins only if age is as stored: it was not edited
            if ybirth is not None and (age is None or old is not None and age == old[3]):
                age = self.reference_year - ybirth
        else:
            # The schema variant cannot hold an age; recover the value
            # from the command that produced this object, if there is one.
            age = None if old is None else old[3]
        owner_id = None
        if owner_ref is not None:
            target_id = obj._references.get("owner")
            if owner_ref.many and target_id is not None:
                if len(target_id) > 1:
                    raise ModelError(
                        f"object {obj.id!r} has {len(target_id)} owners; "
                        f"{kind} carries at most one ownerId"
                    )
                target_id = target_id[0] if target_id else None
            if target_id is not None:
                target = self.model._objects[target_id]
                owner_id = self._id_of_object.get(target) or self.id_for(target)
        fields = (kind, obj_id, name, age, owner_id)
        if fields == old:
            return old, False
        return _trusted(fields), True
