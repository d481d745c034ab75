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
"""

from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass

from .codec import decode_log, decode_model, encode_log, encode_model
from .commands import HAVE_DOG, HAVE_PERSON, KIND_OF_CLASS, SPECS, Command, have_dog, have_person
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

LAWS = ("overwrite", "commutativity", "roundtrip", "delta")


@dataclass
class LawReport:
    law: str
    cases: int
    failures: int
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _case_rng(law, seed, index) -> random.Random:
    return random.Random(f"{law}:{seed + index}")


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


_PERSON_POOL = ["p1", "p2", "px1", "px2", "px3", "px4"]
_DOG_POOL = ["d1", "d2", "dx1", "dx2", "dx3", "dx4"]


def _variant_schemas():
    return [
        SCENARIOS["identity"].m1_schema,
        SCENARIOS["ybirth"].m2_schema,
        SCENARIOS["dog-no-age"].m2_schema,
    ]


def seed_commands(rng, owners=("p1", "p2"), dogs=("d1", "d2")):
    """Base population: 2 persons + 2 dogs, every field present."""
    cmds = [have_person(p, name=random_name(rng), age=rng.randint(0, 150)) for p in owners]
    cmds += [
        have_dog(d, owner_id=rng.choice(owners), name=random_name(rng), age=rng.randint(0, 150))
        for d in dogs
    ]
    return cmds


def _full_command(rng, kind, target_id, owners):
    name = random_name(rng)
    age = rng.randint(0, 150)
    if kind == HAVE_PERSON:
        return have_person(target_id, name=name, age=age)
    return have_dog(target_id, owner_id=rng.choice(owners), name=name, age=age)


def _partial_command(rng, kind, target_id, owner_pool):
    name = random_name(rng) if rng.random() < 0.7 else None
    age = rng.randint(0, 150) if rng.random() < 0.7 else None
    if kind == HAVE_PERSON:
        return have_person(target_id, name=name, age=age)
    owner = rng.choice(owner_pool) if rng.random() < 0.7 else None
    return have_dog(target_id, owner_id=owner, name=name, age=age)


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
    kind = rng.choice((HAVE_PERSON, HAVE_DOG))
    pool = _PERSON_POOL if kind == HAVE_PERSON else _DOG_POOL
    target_id = rng.choice(pool)
    c1 = _full_command(rng, kind, target_id, owners=("p1", "p2"))
    c2 = _full_command(rng, kind, target_id, owners=("p1", "p2"))
    both = _seeded_editor(schema, seeds)
    both.execute(c1)
    both.execute(c2)
    only_second = _seeded_editor(schema, seeds)
    only_second.execute(c2)
    return model_equals(both.model, only_second.model) and both.store == only_second.store


def random_distinct_commands(rng, size):
    """Commands with pairwise-distinct target ids, partial fields allowed."""
    persons = _PERSON_POOL + [f"py{i}" for i in range(len(_PERSON_POOL), size)]
    dogs = _DOG_POOL + [f"dy{i}" for i in range(len(_DOG_POOL), size)]
    owner_pool = list(persons)
    rng.shuffle(persons)
    rng.shuffle(dogs)
    cmds = []
    for _ in range(size):
        if persons and (not dogs or rng.random() < 0.5):
            cmds.append(_partial_command(rng, HAVE_PERSON, persons.pop(), owner_pool))
        else:
            cmds.append(_partial_command(rng, HAVE_DOG, dogs.pop(), owner_pool))
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
    each object the forward's merge built derives its stored command."""
    if scenario is None:
        scenario = SCENARIOS[rng.choice(sorted(SCENARIOS))]
    model = random_model(rng, scenario.m1_schema)
    snapshot = copy_model(model)
    session = MigrationSession.create(scenario.m1_schema, scenario.m2_schema)
    migrate_forward(session, model)
    full = _copy_session(session)
    _parse_every_object(full.m2)
    result = migrate_backward(session)
    return full.m2.store == session.m2.store and model_equals(result, snapshot)


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


def _setter_writes(rng, model, max_writes=3) -> bool:
    """Writes through the setters, with values the schema accepts, each
    after a write straight into the object's mappings or its
    many-reference, through a mutator drawn from all of a dict's (a
    list's); True when every such write was refused."""
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
                model.set_reference(obj, feature.name, rng.choice(pool))
        elif feature is not None:
            value = rng.randint(0, 150) if feature.kind == KIND_INT else random_name(rng)
            model.set_attribute(obj, feature.name, value)
    return True


def _merge_no_op(rng, session):
    """Merge a command with every field UNSET onto an object both sides
    hold, on both sides, as if the peers had exchanged it: it writes
    nothing, but its store entry replaces the old one."""
    targets = [(obj_id, obj) for obj_id, obj in session.m2.registered()
               if obj.class_name in KIND_OF_CLASS]
    if targets:
        obj_id, obj = rng.choice(targets)
        cmd = Command(KIND_OF_CLASS[obj.class_name], obj_id)
        session.m1.merge_all([cmd])
        session.m2.merge_all([cmd])


def _copy_session(session) -> MigrationSession:
    """A deep copy that shares the (immutable) schemas and bindings."""
    shared = {}
    for editor in (session.m1, session.m2):
        shared[id(editor.schema)] = editor.schema
        shared[id(editor.bindings)] = editor.bindings
    return copy.deepcopy(session, shared)


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
    ship would: m2's whole store, derived afresh for every object, then
    encoded, decoded and merged into a copy of m1 taken before the
    backward.  Both m1 model and m1 store must match, and m1's encode must
    match a full render of the reference, after each of three edits and
    backwards.  The forward readies m2: each backward parses only the
    objects m2 marked changed; the third edits objects m2 added while it
    kept marks.  Half the sessions forward a model decoded from its text,
    which keeps its blocks, so m1 re-renders only the objects merges
    marked; the other half one built in code, rendered in full."""
    if scenario is None:
        scenario = SCENARIOS[rng.choice(sorted(SCENARIOS))]
    session = MigrationSession.create(scenario.m1_schema, scenario.m2_schema)
    model = random_model(rng, scenario.m1_schema)
    if rng.random() < 0.5:
        model = decode_model(encode_model(model), scenario.m1_schema)
    migrate_forward(session, model)
    for _ in range(3):
        apply_mutations(session.m2.model, random_mutations(rng, session.m2.model))
        if not _setter_writes(rng, session.m2.model):
            return False
        if rng.random() < 0.3:
            _merge_no_op(rng, session)
        full = _copy_session(session)
        migrate_backward(session)
        _parse_every_object(full.m2)
        text = encode_log(full.m2.store, full.reference_year)
        full.m1.merge_all(decode_log(text).commands)
        if not (
            model_equals(session.m1.model, full.m1.model)
            and session.m1.store == full.m1.store
            and encode_model(session.m1.model) == encode_model(copy_model(full.m1.model))
        ):
            return False
    return True


def _run_law(law, case_fn, seed, cases) -> LawReport:
    failures = 0
    first = None
    for i in range(cases):
        rng = _case_rng(law, seed, i)
        try:
            ok = case_fn(rng)
        except MigrationError:
            ok = False
        if not ok:
            failures += 1
            if first is None:
                first = f"case {i} (replay: --cases 1 --seed {seed + i})"
    return LawReport(law, cases, failures, first)


def check_overwrite(seed, cases) -> LawReport:
    return _run_law("overwrite", overwrite_case, seed, cases)


def check_commutativity(seed, cases, max_commands=5, n_orders=6) -> LawReport:
    def case(rng):
        return commutativity_case(rng, rng.randint(1, max_commands), n_orders=n_orders)

    return _run_law("commutativity", case, seed, cases)


def check_roundtrip(seed, cases) -> LawReport:
    return _run_law("roundtrip", roundtrip_case, seed, cases)


def check_delta(seed, cases) -> LawReport:
    return _run_law("delta", delta_case, seed, cases)


def run_all(seed, cases, max_commands=5) -> list[LawReport]:
    return [
        check_overwrite(seed, cases),
        check_commutativity(seed, cases, max_commands=max_commands),
        check_roundtrip(seed, cases),
        check_delta(seed, cases),
    ]
