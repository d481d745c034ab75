"""Editors: schema + instance model + event store + minted ids.

An editor executes commands, merges incoming command sets, and parses a
bare object model back into the commands that would reproduce it.  The
event store keeps exactly one command per target id; a newer command for
an id replaces the older one after executing.  It also knows which of
its entries the peer editor has not been sent yet.  Each side keeps one
map from id to object, its model's, plus the ids it minted.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from . import commands as _commands
from .commands import (
    KIND_OF_CLASS,
    SPECS,
    Command,
    _Checked,
    _trusted,
    bind,
    canonical_order,
    check_reference_year,
    merge_order,
    DEFAULT_REFERENCE_YEAR,
)
from .errors import MergeError, MigrationError, ModelError
from .metamodel import INT_DIGITS, DynamicObject, InstanceModel, MetaModel, _lay_out, int_in_bound

#: the model reader ``Editor.parse_model`` keeps its place under
PARSE = "parse"


@lru_cache(maxsize=64)
def _holds_every_field(schema) -> bool:
    """Whether every field a command carries lands in a model of
    ``schema``, so an object a command built derives that command again."""
    return all(
        binding is None
        or (binding[1] is not None or "name" not in fields)
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
    any order.  While every entry is unshipped (a new store, and after
    ``mark_unshipped``) the unshipped map is the entries' own, not a copy.

    An entry is the exact tuple of a command's fields, in ``Command``
    field order, never a ``Command``: the cyclic collector untracks an
    exact tuple of atoms, but would scan a tuple subclass in every
    collection for as long as the store lives.  Entries leave the store as
    ``Command``s: ``get``, iteration, ``commands`` and ``snapshot`` wrap
    each one, unchecked, as it was checked on its way in.
    """

    def __init__(self):
        self._entries: dict[str, tuple] = {}
        self._unshipped = self._entries  # entries the peer lacks

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return map(_trusted, self._entries.values())

    def __eq__(self, other):
        if not isinstance(other, EventStore):
            return NotImplemented
        return self._entries == other._entries

    def get(self, obj_id) -> Command | None:
        fields = self._entries.get(obj_id)
        return None if fields is None else _trusted(fields)

    def put(self, cmd: Command):
        """Insert or replace the entry for ``cmd.id``, to be shipped."""
        self._put(cmd.id, tuple(cmd))  # a plain tuple has no id: it is no command

    def _put(self, obj_id, fields: tuple):
        """``put`` for the exact tuple of a command's fields, as a parse builds it."""
        self._entries[obj_id] = self._unshipped[obj_id] = fields

    def put_received(self, *cmds: Command):
        """Insert or replace the entry for each ``cmd.id`` with a command
        the peer sent, so it already holds it: the id no longer ships.
        Each is a ``Command``, or the exact tuple of one's fields that a
        checked reader built (``Editor.merge_all``)."""
        entries, unshipped = self._entries, self._unshipped
        if unshipped is entries:  # every entry so far, less those received below
            unshipped = self._unshipped = dict(entries)
        for cmd in cmds:
            entries[cmd[1]] = tuple(cmd)
        if unshipped:
            for cmd in cmds:
                unshipped.pop(cmd[1], None)

    def commands(self) -> list[Command]:
        """Snapshot in canonical (kind, id) order, sorted on each call."""
        return list(map(_trusted, self._ordered()))

    def _ordered(self) -> list[tuple]:
        """The entries in canonical (kind, id) order, as they are kept."""
        return canonical_order(self._entries.values())

    def snapshot(self) -> dict[str, Command]:
        return dict(zip(self._entries, map(_trusted, self._entries.values())))

    def unshipped(self) -> EventStore:
        """The entries the peer has not seen, as a store to read: this
        store itself when that is every entry (as after a parse of a newly
        adopted model), else a new one."""
        if len(self._unshipped) == len(self._entries):
            return self
        delta = EventStore()
        delta._entries = delta._unshipped = dict(self._unshipped)
        return delta

    def mark_shipped(self):
        """The peer now holds every entry."""
        self._unshipped = {}

    def mark_unshipped(self):
        """The peer holds none of the entries, say because its store
        restarted empty."""
        self._unshipped = self._entries


class Editor:
    """One side of a migration: executes, merges, parses.

    An object is registered under its model key, which makes getOrCreate
    idempotent and lets parsing recover the id of an object seen before,
    except one that ``add`` took in from outside (``InstanceModel.added``,
    say ``new Dog dog9``): on first parse it is registered, stored and
    shipped under a minted id such as ``dog1``.  ``_minted`` maps each
    minted id to its object, ``_id_of_object`` maps back; lookups read
    them, then the model, whose map is the only full one."""

    def __init__(self, schema: MetaModel, reference_year=DEFAULT_REFERENCE_YEAR):
        self.schema = schema
        self.reference_year = check_reference_year(reference_year)
        self.bindings = bind(schema)
        self._hold(InstanceModel(schema))

    def _hold(self, model: InstanceModel):
        """Hold ``model``, recording what ``add`` takes in from now on, with an empty store and no minted id."""
        model.added = {}
        self.model = model
        self.store = EventStore()
        self._minted: dict[str, DynamicObject] = {}
        self._id_of_object: dict[DynamicObject, str] = {}
        self._id_counters: dict[str, int] = {}

    # -- registered ids -----------------------------------------------

    def _lookup(self, obj_id) -> DynamicObject | None:
        """The object registered under ``obj_id``, or None."""
        model = self.model
        if not model.added:  # then nothing is minted: each is under its model key
            return model._objects.get(obj_id)
        obj = self._minted.get(obj_id)
        if obj is None and (obj := model._objects.get(obj_id)) in model.added:
            return None
        return obj

    def registered(self) -> Iterator[tuple[str, DynamicObject]]:
        """Each registered (id, object): the model's, less those ``add`` took in, then the minted."""
        added = self.model.added
        yield from ((obj_id, obj) for obj_id, obj in self.model.objects.items() if obj not in added)
        yield from self._minted.items()

    def get_or_create(self, class_name, obj_id) -> DynamicObject:
        """Return the registered object for (class, id), creating a fresh
        all-UNSET object on first sight.  Calling it repeatedly with one
        id always yields the same object."""
        obj = self._lookup(obj_id)
        if obj is None:  # a key ``add`` took is refused as a duplicate
            obj = self.model.new_object(class_name, obj_id)
            del self.model.added[obj]  # made here, it is registered under its key
        elif obj.class_name != class_name:
            raise ModelError(f"id {obj_id!r} already belongs to class {obj.class_name}, requested {class_name}")
        return obj

    def id_for(self, obj: DynamicObject) -> str:
        """Registered id of a model object, minting a fresh one if absent.

        Fresh ids are `<lowercased class><counter>` with per-class counters
        starting at 1, skipping anything already registered or present in
        the model."""
        known = self._id_of_object.get(obj)
        if known is not None:
            return known
        model = self.model
        if model._objects.get(obj.id) is not obj:
            raise ModelError(f"object {obj.id!r} does not belong to this editor's model")
        if obj not in model.added:
            return obj.id
        prefix = obj.class_name.lower()
        counter = self._id_counters.get(obj.class_name, 1)
        fresh = f"{prefix}{counter}"
        while fresh in self._minted or fresh in model._objects:
            counter += 1
            fresh = f"{prefix}{counter}"
        self._id_counters[obj.class_name] = counter + 1
        self._minted[fresh] = obj
        self._id_of_object[obj] = fresh
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
        ``incoming`` holds ``Command``s, or is the fast log reader's
        ``_Checked`` batch, whose exact tuples run and are stored as they
        are; each goes straight to its kind's runner.

        A merge into an empty editor (the forward's, into m2) builds each
        object from its own command alone.  If the schema holds every
        field a command carries and no owner stub lacks its own command,
        each object derives its stored command again, so the parse starts
        tracking here and the first backward visits only what changed."""
        store, model, bindings = self.store, self.model, self.bindings
        checked = type(incoming) is _Checked
        ordered = merge_order(incoming)
        first = not (store or model.objects) and _holds_every_field(self.schema)
        ran = 0
        try:
            for cmd in ordered:
                binding = bindings[cmd[0] if checked else cmd.kind]  # a plain tuple has no kind
                if binding is None:  # the schema lacks its class: ``run`` refuses it
                    _commands.run(_trusted(cmd), self)
                binding[-1](cmd, self)
                ran += 1
        except MigrationError as e:
            raise MergeError(
                f"merge failed on {cmd[0]} id={cmd[1]!r}: {e}", command=_trusted(cmd)
            ) from e
        finally:
            store.put_received(*ordered[:ran])
        if first and len(ordered) == len(store) == len(model.objects):
            model.seen(PARSE)

    # -- adoption -----------------------------------------------------

    def adopt_model(self, model: InstanceModel):
        """Take ownership of an externally built model.

        Resets the store and the minted ids, so every object is registered
        under its own id, and marks every object for the next parse (its
        reader restarts, see ``InstanceModel.unseen``).  A model is valid
        against its own schema at all times, so it is validated only when
        that schema is not this editor's: then against this editor's, and
        every object is marked for every reader and laid out by its class
        there."""
        if model.schema is not self.schema:
            model.validate(self.schema)
            model.schema = self.schema
            for obj in model.objects.values():
                _lay_out(obj, self.schema.classes[obj.class_name])
            model.mark_all()
        model.readers.pop(PARSE, None)
        self._hold(model)

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
            runs = bucket and None not in self.bindings[kind][2:4]  # has age, has ybirth
            for obj in bucket:
                fields, changed = self._parse(obj, kind)
                if changed:
                    if runs:
                        _commands.run(_trusted(fields), self)
                    store._put(fields[1], fields)
        if track:  # the runs above re-marked what they wrote; it derives its stored command
            model.seen(PARSE)
        return store

    def _parse(self, obj: DynamicObject, kind) -> tuple[tuple, bool]:
        """The fields of the command that reproduces ``obj``, as an exact
        tuple in ``Command`` field order, and whether they differ from the
        stored entry (an unchanged object yields the stored entry itself).

        The age comes from ``age``, else from ``referenceYear - ybirth``;
        when both are set and disagree, from ``ybirth`` if only it differs
        from the stored command.  When the schema declares neither, the
        age is recovered from the command that produced this object, if
        there is one.  An age worked out from ybirth must be inside the int
        bound; no other field is checked: the model checked every value and
        target it holds, and its ids come from the model or from ``id_for``."""
        _, name_at, age_at, ybirth_at, owner_ref, owner_at, _ = self.bindings[kind]
        added = self.model.added  # every other object is registered under its key
        obj_id = self.id_for(obj) if obj in added else obj.id
        old = self.store._entries.get(obj_id)
        if old is not None and old[0] != kind:
            old = None
        values = obj._values  # laid out by this editor's schema, as ``bind`` read it
        name = None if name_at is None else values[name_at]
        if age_at is not None or ybirth_at is not None:
            age = None if age_at is None else values[age_at]
            ybirth = None if ybirth_at is None else values[ybirth_at]
            # with both set, ybirth wins only if age is as stored: it was not edited
            if ybirth is not None and (age is None or old is not None and age == old[3]):
                age = self.reference_year - ybirth
                if not int_in_bound(age):
                    raise ModelError(f"{obj.id}.age = referenceYear - ybirth would have more than {INT_DIGITS} digits")
        else:
            # The schema variant cannot hold an age; recover the value
            # from the command that produced this object, if there is one.
            age = None if old is None else old[3]
        owner_id = None
        if owner_ref is not None:
            target_id = values[owner_at]
            if owner_ref.many and target_id is not None:
                if len(target_id) > 1:
                    raise ModelError(
                        f"object {obj.id!r} has {len(target_id)} owners; "
                        f"{kind} carries at most one ownerId"
                    )
                target_id = target_id[0] if target_id else None
            if target_id is not None:
                target = self.model._objects[target_id]
                owner_id = self.id_for(target) if target in added else target.id
        fields = (kind, obj_id, name, age, owner_id)
        if fields == old:
            return old, False
        return fields, True
