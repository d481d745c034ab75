"""Seeded inputs and expected outputs for the evmigrate benchmark.

Nothing here imports evmigrate: the expected models are computed from the
benchmark's own description of the two schema variants, so a defect in the
program cannot also hide in its check.

A model is a dict ``{id: (class_name, {feature: value})}`` in file order,
where features are attributes (``age`` and ``ybirth`` hold ints, the rest
strings) and the ``owner`` reference (a target id).
"""

from __future__ import annotations

import random
import string

REFERENCE_YEAR = 2020
#: share of the original objects a bulk-churn script edits, and dogs it creates
CHURN_SHARE = 0.1
CHURN_NEW_DOGS = 10
INT_FEATURES = frozenset({"age", "ybirth"})

#: feature order per class, as each schema declares it (attributes first,
#: then references), which is the order instance files list them in
M1_FEATURES = {"Person": ("name", "age"), "Dog": ("name", "age", "owner")}
M2_FEATURES = {
    "ybirth": {"Person": ("name", "ybirth"), "Dog": ("name", "age", "owner")},
    "dog-no-age": {"Person": ("name", "age"), "Dog": ("name", "owner")},
}


class Mismatch(Exception):
    """An output differs from what the benchmark expected."""


# -- instance text --------------------------------------------------------


def parse_instance(text):
    """Read instance-file text into a model (strict: canonical layout only)."""
    model = {}
    values = None
    for line in text.splitlines():
        if line.startswith("  "):
            if values is None:
                raise Mismatch(f"feature line before any object: {line!r}")
            feature, _, value = line[2:].partition(" ")
            values[feature] = int(value) if feature in INT_FEATURES else value
        else:
            tag, obj_id, class_name = line.split(" ")
            if tag != "obj" or obj_id in model:
                raise Mismatch(f"bad object line: {line!r}")
            values = {}
            model[obj_id] = (class_name, values)
    return model


def render_instance(model, features):
    """Instance-file text for a model, objects in model order."""
    lines = []
    for obj_id, (class_name, values) in model.items():
        lines.append(f"obj {obj_id} {class_name}")
        lines.extend(
            f"  {name} {values[name]}" for name in features[class_name] if name in values
        )
    return "\n".join(lines) + "\n" if lines else ""


# -- expected migrations --------------------------------------------------


def project_forward(m1_model, m2_features, year=REFERENCE_YEAR):
    """The m2 model a forward migration must produce: features the target
    lacks are dropped and ``ybirth`` is ``year - age``."""
    out = {}
    for obj_id, (class_name, values) in m1_model.items():
        projected = {}
        for name in m2_features[class_name]:
            if name in values:
                projected[name] = values[name]
            elif name == "ybirth" and "age" in values:
                projected[name] = year - values["age"]
        out[obj_id] = (class_name, projected)
    return out


def project_backward(m2_model, previous_m1, year=REFERENCE_YEAR):
    """The m1 model a backward migration must produce from ``m2_model``.

    ``age`` comes from m2's ``age``, else from ``year - ybirth``, else, for
    an object m1 already had, from its previous m1 value: the event store
    keeps what the target schema cannot hold.
    """
    out = {}
    for obj_id, (class_name, values) in m2_model.items():
        back = {}
        for name in M1_FEATURES[class_name]:
            if name in values:
                back[name] = values[name]
            elif name == "age" and "ybirth" in values:
                back[name] = year - values["ybirth"]
            elif obj_id in previous_m1 and name in previous_m1[obj_id][1]:
                back[name] = previous_m1[obj_id][1][name]
        out[obj_id] = (class_name, back)
    return out


def apply_script(model, script):
    """Apply a mutation script (``set``/``new``/``link`` lines) in place."""
    for line in script.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split(" ", 3)
        if tokens[0] == "set":
            _, obj_id, name, value = tokens
            model[obj_id][1][name] = int(value) if name in INT_FEATURES else value
        elif tokens[0] == "new":
            model[tokens[2]] = (tokens[1], {})
        elif tokens[0] == "link":
            _, obj_id, name, target = tokens
            model[obj_id][1][name] = target
        else:
            raise ValueError(f"unknown mutation {line!r}")
    return model


def _content(entry):
    class_name, values = entry
    return class_name, tuple(sorted(values.items()))


def compare_models(actual, expected, known_ids):
    """Raise Mismatch unless ``actual`` equals ``expected``.

    Objects whose id is in ``known_ids`` must match by id; the rest were
    created on m2 and get ids minted by the receiver, so they must match as
    a multiset of contents.
    """
    if len(actual) != len(expected):
        raise Mismatch(f"{len(actual)} objects, expected {len(expected)}")
    for obj_id in known_ids:
        if actual.get(obj_id) != expected[obj_id]:
            raise Mismatch(f"{obj_id}: got {actual.get(obj_id)}, expected {expected[obj_id]}")
    fresh = sorted(_content(e) for i, e in actual.items() if i not in known_ids)
    want = sorted(_content(e) for i, e in expected.items() if i not in known_ids)
    if fresh != want:
        raise Mismatch(f"created objects differ: got {fresh[:3]}, expected {want[:3]}")


# -- workloads ------------------------------------------------------------


def _name(rng):
    return rng.choice(string.ascii_uppercase) + "".join(
        rng.choices(string.ascii_lowercase, k=rng.randint(3, 8))
    )


def generate_m1(seed, persons, dogs):
    """A seeded m1 model: ``persons`` Persons, then ``dogs`` Dogs, every
    dog owned by a random person."""
    rng = random.Random(seed)
    model = {}
    for i in range(1, persons + 1):
        model[f"p{i}"] = ("Person", {"name": _name(rng), "age": rng.randint(1, 99)})
    for i in range(1, dogs + 1):
        model[f"d{i}"] = (
            "Dog",
            {"name": _name(rng), "age": rng.randint(0, 19), "owner": f"p{rng.randint(1, persons)}"},
        )
    return model


class BulkWorkload:
    """One large input plus a stream of mutation scripts for m2.

    ``churn=False``: each script renames one original dog.
    ``churn=True``: each script edits ``CHURN_SHARE`` of the original
    objects (renames, and ``ybirth`` changes on persons) and creates
    ``CHURN_NEW_DOGS`` dogs, each named, aged and linked to an owner.

    The running expectation is kept on the m2 side (``m2``, in m2 ids) and
    projected back to m1 after every script.  The same seed always yields
    the same input text and the same sequence of scripts.
    """

    def __init__(self, seed, scenario, size, churn):
        self.features = M2_FEATURES[scenario]
        self.m1 = generate_m1(seed, size // 2, size - size // 2)
        self.input_text = render_instance(self.m1, M1_FEATURES)
        self.m2_expected = project_forward(self.m1, self.features)
        self.m2 = project_forward(self.m1, self.features)
        self.known_ids = frozenset(self.m1)
        self._ids = list(self.m1)
        self._rng = random.Random(f"{seed}/mutations")
        self._persons = [i for i, (c, _) in self.m1.items() if c == "Person"]
        self._dogs = [i for i, (c, _) in self.m1.items() if c == "Dog"]
        self._churn = churn
        self._edits = int(size * CHURN_SHARE)
        self._created = 0

    def next_script(self):
        """The next mutation script; advances the expected models."""
        rng = self._rng
        lines = []
        if not self._churn:
            lines.append(f"set {rng.choice(self._dogs)} name {_name(rng)}")
        else:
            for obj_id in rng.sample(self._ids, self._edits):
                if obj_id[0] == "p" and "ybirth" in self.features["Person"] and rng.random() < 0.5:
                    lines.append(f"set {obj_id} ybirth {REFERENCE_YEAR - rng.randint(1, 99)}")
                else:
                    lines.append(f"set {obj_id} name {_name(rng)}")
            for _ in range(CHURN_NEW_DOGS):
                self._created += 1
                dog = f"n{self._created}"
                lines += [
                    f"new Dog {dog}",
                    f"set {dog} name {_name(rng)}",
                    f"set {dog} age {rng.randint(0, 19)}",
                    f"link {dog} owner {rng.choice(self._persons)}",
                ]
        script = "\n".join(lines) + "\n"
        apply_script(self.m2, script)
        self.m1 = project_backward(self.m2, self.m1)
        return script

    def check_forward(self, m2_text):
        compare_models(parse_instance(m2_text), self.m2_expected, self.known_ids)

    def check_backward(self, m1_text):
        compare_models(parse_instance(m1_text), self.m1, self.known_ids)


class TinyWorkload:
    """The pinned fixture of ``evmigrate bench`` through its default
    scenario, ybirth, checked on every cycle: m2 as a model, m1 byte for
    byte."""

    def __init__(self, input_text, mutation):
        m1 = parse_instance(input_text)
        if render_instance(m1, M1_FEATURES) != input_text:
            raise ValueError("fixture is not in canonical instance-file layout")
        self.input_text = input_text
        self.mutation = mutation
        self.known_ids = frozenset(m1)
        self.m2_expected = project_forward(m1, M2_FEATURES["ybirth"])
        m2_after = apply_script(project_forward(m1, M2_FEATURES["ybirth"]), mutation)
        self.m1_text = render_instance(project_backward(m2_after, m1), M1_FEATURES)

    def check(self, m2_text, m1_text):
        compare_models(parse_instance(m2_text), self.m2_expected, self.known_ids)
        if m1_text != self.m1_text:
            raise Mismatch(f"m1 text {m1_text!r}, expected {self.m1_text!r}")
