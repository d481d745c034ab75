"""Randomized oracles for the command laws and the round-trip guarantee.

Each case gets its own RNG derived from ``master seed + case index``, so a
failing case N under seed S replays exactly as case 0 under seed S+N.
Transcripts contain no timing, which keeps repeated runs byte-identical.

Law boundaries honoured by the generators:
  - overwrite pairs are fully specified (every field present) and their
    ownerIds point at pre-seeded persons; UNSET fields skip writes rather
    than clearing, so a partial second command is not an overwrite, and a
    dangling ownerId would leave a stub the single-command run lacks;
  - commutativity sets use pairwise-distinct target ids (stub creation is
    order-insensitive, so ownerIds there may point anywhere);
  - delta cases edit m2 and leave m1 alone between forward and backward:
    a ship that carries only the changed entries keeps edits made to m1 in
    that time, a full ship would not.  The edits are a mutation script,
    then setter writes, each after the same write tried straight into the
    object's read-only mappings (it must be refused), and a command that
    writes nothing, merged on both sides as if the peers had exchanged it.

The roundtrip and delta laws take their reference from a twin session,
which receives the same input and the same edits but derives every
object and ships its whole store: it runs the same code on the same
edits, so it needs no copy of the session under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .codec import decode_log, decode_model, encode_log, encode_model
from .commands import HAVE_DOG, HAVE_PERSON, KIND_OF_CLASS, SPECS, Command
from .editor import Editor
from .errors import MigrationError
from .metamodel import InstanceModel, KIND_INT, ReferenceDef, copy_model, model_equals
from .sync import (
    SCENARIOS,
    MigrationSession,
    apply_mutations,
    migrate_backward,
    migrate_forward,
)

_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGH 0123456789-_:"


@dataclass
class LawReport:
    law: str
    cases: int
    failures: int
    first_failure: str | None = None


def random_name(rng) -> str:
    n = rng.randint(0, 10)
    return "".join(rng.choice(_NAME_ALPHABET) for _ in range(n)).strip()


def random_model(rng, schema, max_objects=8) -> InstanceModel:
    """A random valid instance model for any schema: attributes present
    with probability 0.8, single references with 0.7."""
    model = InstanceModel(schema)
    class_names = list(schema.classes)
    counts: dict[str, int] = {}
    if class_names:
        for _ in range(rng.randint(0, max_objects)):
            cname = rng.choice(class_names)
            counts[cname] = counts.get(cname, 0) + 1
            obj = model.new_object(cname, f"{cname.lower()}_{counts[cname]}")
            for adef in schema.cls(cname).attributes.values():
                if rng.random() < 0.8:
                    value = rng.randint(0, 150) if adef.kind == KIND_INT else random_name(rng)
                    model.set_attribute(obj, adef.name, value)
    for obj in model.objects.values():
        for rdef in schema.cls(obj.class_name).references.values():
            pool = [o.id for o in model.objects.values() if o.class_name == rdef.target]
            if not pool:
                continue
            if rdef.many:
                for target in rng.sample(pool, k=rng.randint(0, min(2, len(pool)))):
                    model.set_reference(obj, rdef.name, target)
            elif rng.random() < 0.7:
                model.set_reference(obj, rdef.name, rng.choice(pool))
    return model


#: kind -> target ids: two the seed population holds, then four it does not
_POOLS = {HAVE_PERSON: ["p1", "p2", "px1", "px2", "px3", "px4"],
          HAVE_DOG: ["d1", "d2", "dx1", "dx2", "dx3", "dx4"]}


def _variant_schemas():
    return [
        SCENARIOS["identity"].m1_schema,
        SCENARIOS["ybirth"].m2_schema,
        SCENARIOS["dog-no-age"].m2_schema,
    ]


def random_command(rng, kind, target_id, owners, chance=1.0) -> Command:
    """A ``kind`` command on ``target_id`` that draws each field
    ``SPECS[kind]`` carries, in ``Command`` order (name, age, then an
    ownerId from ``owners``), each present with probability ``chance``."""
    carried = SPECS[kind][1]
    draws = {"name": random_name, "age": lambda rng: rng.randint(0, 150),
             "ownerId": lambda rng: rng.choice(owners)}
    return Command(kind, target_id, *(
        draw(rng) if field in carried and (chance >= 1 or rng.random() < chance) else None
        for field, draw in draws.items()))


def seed_commands(rng, owners=("p1", "p2"), dogs=("d1", "d2")):
    """Base population: 2 persons + 2 dogs, every field present."""
    return [random_command(rng, kind, obj_id, owners)
            for kind, ids in zip(SPECS, (owners, dogs)) for obj_id in ids]


def _seeded_editor(schema, seed_cmds) -> Editor:
    ed = Editor(schema)
    for cmd in seed_cmds:
        ed.execute(cmd)
    return ed


def overwrite_case(rng, schema=None) -> bool:
    """run(c1); run(c2) must equal run(c2) for same-id, same-kind pairs."""
    if schema is None:
        schema = rng.choice(_variant_schemas())
    seeds = seed_commands(rng)
    kind = rng.choice(list(SPECS))
    target_id = rng.choice(_POOLS[kind])
    c1, c2 = (random_command(rng, kind, target_id, owners=("p1", "p2")) for _ in range(2))
    both = _seeded_editor(schema, seeds)
    both.execute(c1)
    both.execute(c2)
    only_second = _seeded_editor(schema, seeds)
    only_second.execute(c2)
    return model_equals(both.model, only_second.model) and both.store == only_second.store


def random_distinct_commands(rng, size):
    """Commands with pairwise-distinct target ids, partial fields allowed:
    each pick draws a kind, then an id not yet drawn from that kind's pool
    (grown to ``size`` ids); ownerIds come from the persons' pool."""
    ids = {kind: pool + [f"{pool[0][0]}y{i}" for i in range(len(pool), size)]
           for kind, pool in _POOLS.items()}
    owners = list(ids[HAVE_PERSON])
    for pool in ids.values():
        rng.shuffle(pool)
    kinds, cmds = list(ids), []
    for _ in range(size):
        kind = kinds[int(rng.random() * len(kinds))]
        cmds.append(random_command(rng, kind, ids[kind].pop(), owners, chance=0.7))
    return cmds


def commutativity_case(rng, size, n_orders=None, schema=None) -> bool:
    """Every execution order of a distinct-id command set must produce the
    same model and store.  ``n_orders=None`` means exhaustive."""
    if schema is None:
        schema = rng.choice(_variant_schemas())
    seeds = seed_commands(rng)
    cmds = random_distinct_commands(rng, size)
    if n_orders is None:
        orders = list(itertools.permutations(cmds))
    else:
        orders = [cmds]
        for _ in range(max(0, n_orders - 1)):
            shuffled = cmds[:]
            rng.shuffle(shuffled)
            orders.append(shuffled)
    reference = None
    for order in orders:
        ed = _seeded_editor(schema, seeds)
        for cmd in order:
            ed.execute(cmd)
        if reference is None:
            reference = ed
        elif not (model_equals(ed.model, reference.model) and ed.store == reference.store):
            return False
    return True


def roundtrip_case(rng, scenario=None) -> bool:
    """Forward then backward with no modification reproduces the input.
    The backward may parse none of m2's objects, so m2 is checked too:
    each object the forward's merge built derives its stored command, as
    a twin session shows that forwards a copy of the input and then
    derives every object of its m2."""
    if scenario is None:
        scenario = SCENARIOS[rng.choice(sorted(SCENARIOS))]
    model = random_model(rng, scenario.m1_schema)
    snapshot = copy_model(model)
    session, twin = (MigrationSession.create(scenario.m1_schema, scenario.m2_schema) for _ in range(2))
    migrate_forward(twin, copy_model(model))
    migrate_forward(session, model)
    _parse_every_object(twin.m2)
    result = migrate_backward(session)
    return twin.m2.store == session.m2.store and model_equals(result, snapshot)


def random_mutations(rng, model, max_lines=6) -> str:
    """A mutation script valid on ``model``: ``set`` (about 55 % of the
    lines), ``new`` (25 %) and ``link`` (20 %, where a reference exists)."""
    schema = model.schema
    class_of = {obj_id: obj.class_name for obj_id, obj in model.objects.items()}
    lines = []
    for n in range(1, rng.randint(0, max_lines) + 1):
        roll = rng.random()
        if roll < 0.25 or not class_of:
            class_name = rng.choice(list(schema.classes))
            new_id = f"new_{n}"
            while new_id in class_of:  # taken by an earlier script
                new_id += "_"
            class_of[new_id] = class_name
            lines.append(f"new {class_name} {new_id}")
            continue
        obj_id = rng.choice(list(class_of))
        cls = schema.cls(class_of[obj_id])
        if roll < 0.8 and cls.attributes:
            adef = rng.choice(list(cls.attributes.values()))
            value = rng.randint(0, 150) if adef.kind == KIND_INT else random_name(rng)
            lines.append(f"set {obj_id} {adef.name} {value}")
        elif cls.references:
            rdef = rng.choice(list(cls.references.values()))
            pool = [i for i, c in class_of.items() if c == rdef.target]
            if pool:
                lines.append(f"link {obj_id} {rdef.name} {rng.choice(pool)}")
    return "".join(line + "\n" for line in lines)


#: every mutator of a dict and of a list, each with arguments it takes
DICT_MUTATORS = {"__setitem__": ("name", "x"), "__delitem__": ("name",), "pop": ("name", None),
                 "popitem": (), "setdefault": ("name", "x"), "update": ({"name": "x"},),
                 "clear": (), "__ior__": ({"name": "x"},)}
LIST_MUTATORS = {"__setitem__": (0, "x"), "__delitem__": (0,), "append": ("x",),
                 "extend": (["x"],), "insert": (0, "x"), "remove": ("x",), "pop": (),
                 "clear": (), "sort": (), "reverse": (), "__iadd__": (["x"],), "__imul__": (2,)}


def refuses(target, mutator, *args) -> bool:
    """Whether ``target`` refuses the call of ``mutator`` with ``args``
    as a read-only value does (by a missing method or a ``TypeError``)."""
    try:
        getattr(target, mutator)(*args)
    except (AttributeError, TypeError):
        return True
    except (LookupError, ValueError):  # the call was made: nothing refused it
        pass
    return False


def _setter_writes(rng, model, twin, max_writes=3) -> bool:
    """Writes through the setters, with values the schema accepts, to
    ``model`` and the same to the same objects of ``twin``, each after a
    write straight into the object's mappings or its many-reference,
    through a mutator drawn from all of a dict's (a list's); True when
    every such write was refused."""
    objects = list(model.objects.values())
    for _ in range(rng.randint(0, max_writes) if objects else 0):
        obj = rng.choice(objects)
        many = [value for value in obj.references.values() if type(value) is tuple]
        if many and rng.random() < 0.3:
            mutator = rng.choice(sorted(LIST_MUTATORS))
            target, args = rng.choice(many), LIST_MUTATORS[mutator]
        else:
            mutator = rng.choice(sorted(DICT_MUTATORS))
            target, args = rng.choice((obj.attributes, obj.references)), DICT_MUTATORS[mutator]
        if not refuses(target, mutator, *args):
            return False
        cls = model.schema.cls(obj.class_name)
        features = [*cls.attributes.values(), *cls.references.values()]
        feature = rng.choice(features) if features else None
        if isinstance(feature, ReferenceDef):
            pool = [o.id for o in objects if o.class_name == feature.target]
            if pool:
                target = rng.choice(pool)
                for m in (model, twin):
                    m.set_reference(m.get(obj.id), feature.name, target)
        elif feature is not None:
            value = rng.randint(0, 150) if feature.kind == KIND_INT else random_name(rng)
            for m in (model, twin):
                m.set_attribute(m.get(obj.id), feature.name, value)
    return True


def _merge_no_op(rng, session, twin):
    """Merge a command with every field UNSET onto an object both sides
    hold, on both sides of ``session`` and of ``twin``, as if the peers
    had exchanged it: it writes nothing, but its store entry replaces the
    old one."""
    targets = [(obj_id, obj) for obj_id, obj in session.m2.registered()
               if obj.class_name in KIND_OF_CLASS]
    if targets:
        obj_id, obj = rng.choice(targets)
        cmd = Command(KIND_OF_CLASS[obj.class_name], obj_id)
        for editor in (session.m1, session.m2, twin.m1, twin.m2):
            editor.merge_all([cmd])


def _parse_every_object(editor):
    """``Editor.parse_model`` without its skip of unchanged commands, and
    without its code: execute and store, for every object, the command
    worked out here from the object's values and its old store entry, so
    a fault in the editor's derivation cannot hide in the reference.
    Persons go first and each class in model order, the order new ids are
    minted in."""
    for kind, (class_name, fields) in SPECS.items():
        for obj in [o for o in editor.model.objects.values() if o.class_name == class_name]:
            obj_id = editor.id_for(obj)
            old = editor.store.get(obj_id)
            old_age = old.age if old is not None and old.kind == kind else None
            values = obj.attributes
            holds_age = {"age", "ybirth"} & editor.schema.cls(class_name).attributes.keys()
            age = values.get("age") if holds_age else old_age
            if values.get("ybirth") is not None and (age is None or age == old_age):
                age = editor.reference_year - values["ybirth"]  # ybirth carries the edit
            owner = obj.references.get("owner") if "ownerId" in fields else None
            if isinstance(owner, tuple):
                owner = owner[0] if owner else None
            if owner is not None:
                owner = editor.id_for(editor.model.objects[owner])
            editor.execute(Command(kind, obj_id, values.get("name"), age, owner))


def delta_case(rng, scenario=None) -> bool:
    """A backward that ships only the changed entries leaves m1 as a full
    ship would.  A twin session kept in lockstep gets the same input and
    the same edits, and in place of each backward derives every object of
    its m2 afresh and merges m2's whole store, encoded and decoded, into
    its m1.  Both m1 model and m1 store must match the twin's, and m1's
    encode must match a full render of the twin's, after each of three
    edits and backwards.  The forward readies m2: each backward parses
    only the objects m2 marked changed; the third edits objects m2 added
    while it kept marks.  Half the sessions forward a model decoded from
    its text, which keeps its blocks, so m1 re-renders only the objects
    merges marked; the other half one built in code, rendered in full."""
    if scenario is None:
        scenario = SCENARIOS[rng.choice(sorted(SCENARIOS))]
    session, twin = (MigrationSession.create(scenario.m1_schema, scenario.m2_schema) for _ in range(2))
    model = random_model(rng, scenario.m1_schema)
    if rng.random() < 0.5:
        model = decode_model(encode_model(model), scenario.m1_schema)
    migrate_forward(twin, copy_model(model))
    migrate_forward(session, model)
    for _ in range(3):
        script = random_mutations(rng, session.m2.model)
        apply_mutations(session.m2.model, script)
        apply_mutations(twin.m2.model, script)
        if not _setter_writes(rng, session.m2.model, twin.m2.model):
            return False
        if rng.random() < 0.3:
            _merge_no_op(rng, session, twin)
        migrate_backward(session)
        _parse_every_object(twin.m2)
        text = encode_log(twin.m2.store, twin.reference_year)
        twin.m1.merge_all(decode_log(text).commands)
        if not (
            model_equals(session.m1.model, twin.m1.model)
            and session.m1.store == twin.m1.store
            and encode_model(session.m1.model) == encode_model(copy_model(twin.m1.model))
        ):
            return False
    return True


#: law -> its case: (an RNG, the most commands a case may draw) -> whether it holds
LAWS = {
    "overwrite": lambda rng, max_commands: overwrite_case(rng),
    "commutativity": lambda rng, max_commands: commutativity_case(
        rng, rng.randint(1, max_commands), n_orders=6),
    "roundtrip": lambda rng, max_commands: roundtrip_case(rng),
    "delta": lambda rng, max_commands: delta_case(rng),
}


def check(law, seed, cases, max_commands=5) -> LawReport:
    """Run ``cases`` cases of ``law``, case i on its own RNG seeded from
    ``seed + i``."""
    failures, first = 0, None
    for i in range(cases):
        try:
            ok = LAWS[law](random.Random(f"{law}:{seed + i}"), max_commands)
        except MigrationError:
            ok = False
        if not ok:
            failures += 1
            first = first or f"case {i} (replay: --cases 1 --seed {seed + i})"
    return LawReport(law, cases, failures, first)


def run_all(seed, cases, max_commands=5) -> list[LawReport]:
    return [check(law, seed, cases, max_commands) for law in LAWS]
