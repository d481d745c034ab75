"""End-to-end migration orchestration between two editors.

Forward: adopt the source model, parse it into commands, ship the encoded
log, merge on the target.  Backward: re-parse the (possibly externally
modified) target model, store the commands that changed, ship, merge on
the source.  Shipping always goes through the wire text even in-process,
so the serialized path stays exercised.

A ship carries only the sender's store entries that changed since the
last exchange (a delta is just a shorter log, still ``format: 1``).  The
overwrite law means the receiver needs nothing else; the commutativity
law means the entries may arrive in any order.  A forward starts from the
freshly adopted, and so empty, store of m1 and ships all of it.  One
consequence: edits made to m1's model after a forward, outside the
commands m2 sends back, survive a backward on every object m2 did not
change, where a full ship used to overwrite them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .codec import decode_log, encode_log, keep_blocks
from .commands import DEFAULT_REFERENCE_YEAR
from .editor import Editor
from .errors import FormatError, MigrationError, ModelError
from .metamodel import InstanceModel, MetaModel, load_schema, significant_lines


@dataclass
class Scenario:
    """A named pair of schemas to migrate between."""

    name: str
    m1_schema: MetaModel
    m2_schema: MetaModel


BASE_SCHEMA_TEXT = """\
class Person
  attr name string
  attr age int
class Dog
  attr name string
  attr age int
  ref owner -> Person one
"""

YBIRTH_SCHEMA_TEXT = """\
class Person
  attr name string
  attr ybirth int
class Dog
  attr name string
  attr age int
  ref owner -> Person one
"""

DOG_NO_AGE_SCHEMA_TEXT = """\
class Person
  attr name string
  attr age int
class Dog
  attr name string
  ref owner -> Person one
"""


def _base_schema(name="m1"):
    return load_schema(BASE_SCHEMA_TEXT, name=name)


SCENARIOS: dict[str, Scenario] = {
    "identity": Scenario(  # both sides use the same schema
        "identity",
        _base_schema(),
        _base_schema("m2"),
    ),
    "ybirth": Scenario(  # target stores year of birth instead of age
        "ybirth",
        _base_schema(),
        load_schema(YBIRTH_SCHEMA_TEXT, name="m2"),
    ),
    "dog-no-age": Scenario(  # target drops the dog's age attribute
        "dog-no-age",
        _base_schema(),
        load_schema(DOG_NO_AGE_SCHEMA_TEXT, name="m2"),
    ),
}


#: how many of the latest wire texts a session keeps
TRANSCRIPT_LIMIT = 4


@dataclass
class MigrationSession:
    """Two editors plus the shared reference year; the latest wire texts
    (at most ``TRANSCRIPT_LIMIT``, oldest first) are kept for inspection."""

    m1: Editor
    m2: Editor
    reference_year: int = DEFAULT_REFERENCE_YEAR
    transcripts: deque[str] = field(default_factory=lambda: deque(maxlen=TRANSCRIPT_LIMIT))

    @classmethod
    def create(cls, m1_schema, m2_schema, reference_year=DEFAULT_REFERENCE_YEAR):
        return cls(
            Editor(m1_schema, reference_year),
            Editor(m2_schema, reference_year),
            reference_year,
        )

    @classmethod
    def for_scenario(cls, name, reference_year=DEFAULT_REFERENCE_YEAR):
        try:
            scenario = SCENARIOS[name]
        except KeyError:
            raise ModelError(
                f"unknown scenario {name!r} (have: {', '.join(sorted(SCENARIOS))})"
            ) from None
        return cls.create(scenario.m1_schema, scenario.m2_schema, reference_year)


def _ship(session: MigrationSession, sender: Editor, receiver: Editor) -> str:
    """Send the receiver the sender's unshipped entries.  They stay
    unshipped until the receiver has merged them all."""
    text = encode_log(sender.store.unshipped(), session.reference_year)
    doc = decode_log(text)
    if doc.reference_year != receiver.reference_year:
        raise FormatError(
            f"log uses reference year {doc.reference_year}, "
            f"receiver expects {receiver.reference_year}"
        )
    receiver.merge_all(doc.commands)
    sender.store.mark_shipped()
    session.transcripts.append(text)
    return text


def migrate_forward(session: MigrationSession, m1_input: InstanceModel) -> InstanceModel:
    """Adopt the input on m1, parse it, ship the log to m2; returns m2's model."""
    session.m1.adopt_model(m1_input)
    session.m1.parse_model()
    # m1's store restarted empty, so whatever m2 holds beyond this ship is
    # new to m1 again (nothing, in a fresh session)
    session.m2.store.mark_unshipped()
    _ship(session, session.m1, session.m2)
    keep_blocks(session.m1.model)  # every backward ends in an encode of m1
    return session.m2.model


def migrate_backward(session: MigrationSession) -> InstanceModel:
    """Re-parse m2's (possibly modified) model and ship what changed back
    to m1; returns m1's model."""
    session.m2.parse_model()
    _ship(session, session.m2, session.m1)
    return session.m1.model


#: mutation -> (token counts, syntax); ``set`` may leave the value out
_MUTATIONS = {
    "set": ((3, 4), "set <id> <attr> <value>"),
    "new": ((3,), "new <Class> <id>"),
    "link": ((4,), "link <id> <ref> <targetId>"),
}


def apply_mutations(model: InstanceModel, script: str):
    """Apply a mutation script directly to a model, bypassing commands.

    One mutation per line, in a form ``_MUTATIONS`` lists; `#` comments
    allowed.  A malformed line raises ``FormatError``, a line the model
    refuses raises ``ModelError``; both name the line.
    """
    objects, set_text = model.objects, model.set_attribute_text
    for lineno, line in significant_lines(script):
        tokens = line.split(None, 3)
        op = tokens[0]
        mutation = _MUTATIONS.get(op)
        if mutation is None:
            raise FormatError(f"unknown mutation {op!r}", line=lineno)
        if len(tokens) not in mutation[0]:
            raise FormatError(f"expected {mutation[1]!r}", line=lineno)
        try:
            if op == "new":
                model.new_object(tokens[1], tokens[2])
                continue
            obj = objects.get(tokens[1])
            if obj is None:
                raise ModelError(f"unknown object id {tokens[1]!r}")
            if op == "set":
                set_text(obj, tokens[2], tokens[3] if len(tokens) == 4 else "")
            else:
                model.set_reference(obj, tokens[2], tokens[3])
        except MigrationError as e:
            raise ModelError(str(e), line=lineno) from None
