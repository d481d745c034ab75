"""Bit-exact serialization of command logs and instance models.

The command log is a pinned, YAML-compatible subset with two-space
indentation; no YAML library is involved so the bytes stay canonical.
Encoding is deterministic: commands sorted by (kind, id) with persons
before dogs, optional fields omitted when UNSET.  String values run
verbatim to end of line (trimmed).  An id is one token, and no value may
hold a character at which ``str.splitlines`` breaks a line: ``Command``
and the model layer refuse any other, so no value can forge a line.

The decoder accepts more than the encoder writes: blank lines and
full-line ``#`` comments anywhere, any line ending that
``str.splitlines`` knows, trailing whitespace, fields in any order inside
a block, field lines indented four or more spaces, and whitespace around
keys and values.

Both formats have two readers.  Text wholly in the encoder's layout, with
values that need no trimming, is read by one regular expression per
command block or per object; the fast reader declines any other text
whole, and the line-by-line reader reads it, which alone defines what is
accepted and what each error says.  The instance pattern and a build and
a render function per class are generated once per schema, on first use
(``_kernels``).

A model keeps its text (``KeptBlocks``) if and only if the fast reader
read all of it, in chunks, with the length of each object's block.  Each
encode renders only the objects marked since the last and splices them
into their chunks' texts.  A model the line reader read, or one built in
code, is rendered in full at every encode.
"""

from __future__ import annotations

import re
from array import array
from functools import cached_property, lru_cache
from itertools import accumulate, chain, islice
from operator import attrgetter, sub

from .commands import _OWNED_KINDS, SPECS, Command, _Checked, _id_of, _trusted, check_reference_year
from .editor import EventStore
from .errors import FormatError, MigrationError
from .metamodel import (
    INT_DIGITS,
    KIND_INT,
    AttributeDef,
    LINE_BREAKS,
    InstanceModel,
    MetaModel,
    _set_values,
    compile_kernel,
    significant_lines,
)

FORMAT_VERSION = 1
_NL = "\n"  # a line end inside a replacement field, where no backslash may go


class CommandLogDocument:
    """A decoded log: its headers and its commands, in wire order.

    ``entries`` holds the commands as the reader built them, which is what
    a ship merges: the fast reader's exact tuples (``commands._Checked``)
    or the line reader's ``Command``s.  ``commands`` is a list of
    ``Command``s, built from exact tuples at its first read."""

    def __init__(self, format_version: int, reference_year: int, commands):
        self.format_version = format_version
        self.reference_year = reference_year
        self.entries = commands

    @cached_property
    def commands(self) -> list[Command]:
        entries = self.entries
        return list(map(_trusted, entries)) if type(entries) is _Checked else entries

    def __eq__(self, other):
        if not isinstance(other, CommandLogDocument):
            return NotImplemented
        return (self.format_version, self.reference_year, self.commands) == (
            other.format_version, other.reference_year, other.commands)

    def __repr__(self):
        return (f"CommandLogDocument(format_version={self.format_version!r}, "
                f"reference_year={self.reference_year!r}, commands={self.commands!r})")


def _parse_int(text, lineno, what):
    try:
        return int(text, 10)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {text!r}", line=lineno) from None


# -- command logs -------------------------------------------------------


def encode_log(store: EventStore, reference_year) -> str:
    """Canonical text for an event store; stable across calls."""
    out = [f"format: {FORMAT_VERSION}\nreferenceYear: {reference_year}\ncommands:\n"]
    for kind, obj_id, name, age, owner_id in store._ordered():
        # an empty name leaves no trailing blank: the wire trims values anyway
        out.append(
            f"  - command: {kind}\n    id: {obj_id}\n"
            f"{'' if owner_id is None else f'    ownerId: {owner_id}{_NL}'}"
            f"{'' if name is None else f'    name: {name}'.rstrip() + _NL}"
            f"{'' if age is None else f'    age: {age}{_NL}'}"
        )
    return "".join(out)


_HEADERS = ("format", "referenceYear")


def _split_entry(line, lineno):
    key, sep, value = line.partition(":")
    if not sep:
        raise FormatError(f"expected 'key: value', got {line.strip()!r}", line=lineno)
    return key.strip(), value.strip()


# The canonical layout, as ``encode_log`` writes it.  A value is
# non-empty, has no whitespace at either end and no character at which
# ``str.splitlines`` would break, so the line reader would see the same
# lines, keys and values.  An int has at most ``INT_DIGITS`` digits, which
# ``int`` reads in any process.
_VALUE = rf"\S(?:[^{LINE_BREAKS}]*\S)?"
_CANONICAL_HEAD = re.compile(
    rf"format: {FORMAT_VERSION}\nreferenceYear: ([1-9][0-9]{{0,{INT_DIGITS - 1}}})\ncommands:\n")
# Group 2 matches, empty, after a kind that carries an ownerId, and only
# then may an ownerId line follow; an empty name ("    name:") is group 6.
_CANONICAL_BLOCK = re.compile(
    rf"  - command: ({'|'.join(kind for kind in SPECS if kind not in _OWNED_KINDS)}"
    rf"|(?:{'|'.join(kind for kind in SPECS if kind in _OWNED_KINDS)})())\n"
    rf"    id: (\S+)\n"
    rf"(?(2)(?:    ownerId: (\S+)\n)?)"
    rf"(?:    name:(?: ({_VALUE})|())\n)?"
    rf"(?:    age: (-?[0-9]{{1,{INT_DIGITS}}})\n)?"
)
#: each kind's own string, so that stored commands share it
_KIND = {kind: kind for kind in SPECS}


def _decode_canonical(text) -> CommandLogDocument | None:
    """Decode text in the encoder's layout; None for anything else: other
    valid layouts, values the line reader would trim, and every input it
    would reject.

    The pattern admits only what ``Command`` checks (a known kind, an id
    and ownerId of one token, ownerId only where allowed, an age in the
    bound), so the commands are kept as the exact tuples of their fields,
    a ``_Checked`` batch, and no ``Command`` is built."""
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    pos = head.end()
    end = len(text)
    match_block = _CANONICAL_BLOCK.match
    cmds: list[tuple] = []
    while pos < end:
        block = match_block(text, pos)
        if block is None:
            return None
        pos = block.end()
        kind, _, obj_id, owner_id, name, empty, age = block.groups()
        cmds.append((_KIND[kind], obj_id, empty if name is None else name,
                     None if age is None else int(age, 10), owner_id))
    if len(set(map(_id_of, cmds))) != len(cmds):
        return None
    return CommandLogDocument(FORMAT_VERSION, int(head[1], 10), _Checked(cmds))


def decode_log(text) -> CommandLogDocument:
    """Parse a command log.  Commands come back in wire order; field order
    inside a block is free, and the document is re-canonicalized on
    encode (persons first, then by id).  Receivers need no particular
    order: ``Editor.merge_all`` sorts by (class, id) itself."""
    doc = _decode_canonical(text)
    return doc if doc is not None else _decode_lines(text)


def _decode_lines(text) -> CommandLogDocument:
    """The general reader: any layout the format allows, with a line
    number on every error that has one."""
    lines = list(significant_lines(text))
    n = len(lines)
    pos = 0
    headers = {}
    for want in _HEADERS:
        if pos >= n:
            raise FormatError(f"missing {want!r} header")
        lineno, line = lines[pos]
        key, value = _split_entry(line, lineno)
        if key != want:
            raise FormatError(f"expected {want!r} header, got {key!r}", line=lineno)
        headers[want] = _parse_int(value, lineno, want)
        pos += 1
    if headers["format"] != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {headers['format']}")
    try:
        check_reference_year(headers["referenceYear"])
    except ValueError as e:
        raise FormatError(str(e)) from None
    if pos >= n or lines[pos][1].strip() != "commands:":
        raise FormatError("missing 'commands:' section")
    pos += 1

    cmds: list[Command] = []
    seen_ids: dict[str, int] = {}
    while pos < n:
        lineno, line = lines[pos]
        if not line.startswith("  - "):
            raise FormatError("expected '  - command: <kind>'", line=lineno)
        key, kind = _split_entry(line[4:], lineno)
        if key != "command":
            raise FormatError(f"command block must start with 'command', got {key!r}", line=lineno)
        spec = SPECS.get(kind)
        if spec is None:
            raise FormatError(f"unknown command kind {kind!r}", line=lineno)
        allowed = spec[1]
        pos += 1
        fields = {}
        field_lines = {}
        while pos < n:
            flineno, fline = lines[pos]
            if not fline.startswith("    "):
                break
            fkey, fvalue = _split_entry(fline, flineno)
            if fkey not in allowed:
                raise FormatError(f"field {fkey!r} is not valid for {kind}", line=flineno)
            if fkey in fields:
                raise FormatError(f"duplicate field {fkey!r}", line=flineno)
            fields[fkey] = fvalue
            field_lines[fkey] = flineno
            pos += 1
        obj_id = fields.get("id")
        if not obj_id:
            raise FormatError("command block lacks a non-empty id", line=lineno)
        if obj_id in seen_ids:
            raise FormatError(
                f"duplicate command id {obj_id!r} (first seen on line {seen_ids[obj_id]})",
                line=lineno,
            )
        seen_ids[obj_id] = lineno
        age = fields.get("age")
        if age is not None:
            age = _parse_int(age, field_lines["age"], "age")
        try:
            cmds.append(Command(kind, obj_id, name=fields.get("name"), age=age, owner_id=fields.get("ownerId")))
        except ValueError as e:  # an id or ownerId that is not one token
            raise FormatError(str(e), line=lineno) from None
    return CommandLogDocument(FORMAT_VERSION, headers["referenceYear"], cmds)


# -- instance models -----------------------------------------------------


#: the model reader ``encode_model`` keeps its place under
ENCODE = "encode"


def encode_model(model: InstanceModel) -> str:
    """Instance file text: objects in model order, features in declaration
    order, one line per many-reference target.

    A model the fast reader read keeps its text (``KeptBlocks``): an
    encode re-renders only the objects marked since the last and splices
    them into their chunks, so copying the text out is the one step that
    grows with the model.  Any other model is rendered object by object."""
    kept = model.blocks
    render = _kernels(model.schema)[2]
    if kept is None:
        return "".join([render[obj.class_name](obj) for obj in model.objects.values()])
    at, lengths, texts = kept.at, kept.lengths, kept.texts
    stale = {}  # chunk index -> {position: its new block}
    for obj in model.unseen(ENCODE):
        pos = at.get(obj)
        if pos is None:  # a new object: ``add`` put it last in the model
            pos = at[obj] = len(lengths)
            lengths.append(0)
            if not pos % CHUNK:
                texts.append("")
        stale.setdefault(pos // CHUNK, {})[pos] = render[obj.class_name](obj)
    for i, blocks in stale.items():
        lo = i * CHUNK
        # offsets[k]: where the chunk's k-th block starts in its text
        offsets = list(accumulate(lengths[lo:lo + CHUNK], initial=0))
        text, start, pieces = texts[i], 0, []
        for pos in sorted(blocks):  # the unchanged text before each new block
            block = blocks[pos]
            pieces += text[start:offsets[pos - lo]], block
            start = offsets[pos - lo + 1]
            lengths[pos] = len(block)
        pieces.append(text[start:])
        texts[i] = "".join(pieces)
    model.seen(ENCODE)
    return "".join(texts)


#: objects per chunk of kept text
CHUNK = 256


class KeptBlocks:
    """A model's instance-file text, kept for ``encode_model`` as a piece
    table (Crowley, "Data Structures for Text Sequences", 1998): ``texts``,
    the text of each chunk of ``CHUNK`` objects in model order; ``at``,
    object -> its position in model order; and ``lengths``, each object's
    block length in model order.  An edit is spliced into its own chunk's
    text, and no string is kept per object."""

    __slots__ = ("at", "lengths", "texts")

    def __init__(self, text, bounds, objects):
        """The chunks of ``objects``, the k-th read as ``text[bounds[k]:bounds[k + 1]]``."""
        n = len(bounds) - 1
        self.at = {obj: pos for pos, obj in enumerate(objects)}
        self.lengths = array("q", map(sub, bounds[1:], bounds))
        self.texts = [text[bounds[i]:bounds[min(i + CHUNK, n)]] for i in range(0, n, CHUNK)]


@lru_cache(maxsize=64)
def _kernels(schema: MetaModel):
    """The instance format's per-object kernels, generated at first use
    and shared, never written: (the match of one object as ``encode_model``
    writes it, a class per alternative; alternative's closing empty group
    (``match.lastindex``) -> the ``build`` of its objects; class -> the
    renderer of an object's block), which read and write values by
    position.  ``build`` links a single reference to a target of its class
    it already read (``get``), adds the object to ``targets[(target class,
    reference name, many, position)]`` for each other reference, and
    refuses a repeated target.  Names reach the source as ``repr``
    literals."""
    alternatives, builds, renderers, group = [], {}, {}, 2  # group 1 is the id
    for cls in schema.classes.values():
        fields, parts, build = ["obj_id"], [], []
        render = [f"    [{', '.join(f'v{k}' for k in range(len(cls.features)))}] = obj._values"]
        defaults = [f"H={f' {cls.name}{_NL}'!r}"]
        for k, feature in enumerate(cls.features):
            name = feature.name
            prefix, line, v, collect = f"  {name} ", "  " + re.escape(name), f"v{k}", []
            defaults.append(f"F{k}={prefix!r}")
            piece = f"    p{k} = '' if {v} is None else f'{{F{k}}}{{{v}}}\\n'"
            if isinstance(feature, AttributeDef) and feature.kind != KIND_INT:  # "" is written "  name"
                part, value = rf"(?:{line}( {_VALUE}|)\n)?", f"{v} = {v}[1:]"
                piece = f"    p{k} = '' if {v} is None else f'{{F{k}}}{{{v}}}'.rstrip() + '\\n'"
            elif isinstance(feature, AttributeDef):  # as ``str(int)`` writes it
                part, value = rf"(?:{line} (0|-?[1-9][0-9]{{0,{INT_DIGITS - 1}}})\n)?", f"{v} = int({v}, 10)"
            elif feature.many:
                part, value = rf"((?:{line} \S+\n)+)?", f"{v} = tuple({v}[{len(prefix)}:-1].split({_NL + prefix!r}))"
                defaults.append(f"J{k}={_NL + prefix!r}")
                piece = f"    p{k} = f'{{F{k}}}{{J{k}.join({v})}}\\n' if {v} else ''"
                collect = [f"        if len(set({v})) < len({v}):", "            raise ValueError('a repeated target')",
                           f"        late += ({(feature.target, name, True, k)!r},)"]
            else:
                part, value = rf"(?:{line} (\S+)\n)?", f"t = get({v})"
                collect = [f"        if t is not None and t.class_name == {feature.target!r}:",
                           f"            {v} = t.id", "        else:",
                           f"            late += ({(feature.target, name, False, k)!r},)"]
            render.append(piece)
            parts.append(part)
            fields.append(v)
            build += [f"    if {v} is not None:", f"        {value}", *collect]
        fields.append("_")  # the closing group: ``group`` then gives a tuple
        groups = (1, *range(group, group + len(fields) - 1))
        values = "".join(f"v{k}, " for k in range(len(cls.features)))
        made = f"_object(obj_id, {cls.name!r}, ({values}), LAYOUT, ref)"
        source = "\n".join([
            "def build(match, ref, targets, get):", f"    {', '.join(fields)} = match.group{groups}",
            *(["    late = ()", *build, f"    obj = {made}", "    for key in late:",
               "        targets[key].append(obj)", "    return obj"] if cls.references else
              [*build, f"    return {made}"]), "", "",
            f"def render(obj, {', '.join(defaults)}):", *render,
            "    return f'obj {obj.id}{H}" + "".join(f"{{p{k}}}" for k in range(len(cls.features))) + "'", ""])
        kernel = compile_kernel(f"{schema.name}.{cls.name}", source, {"LAYOUT": cls})
        renderers[cls.name] = kernel["render"]
        alternatives.append(f"{re.escape(cls.name)}\\n{''.join(parts)}()")
        builds[groups[-1]] = kernel["build"]
        group = groups[-1] + 1
    # an object's text ends where the next starts, or the text does
    match = re.compile(rf"obj (\S+) (?:{'|'.join(alternatives) or '(?!)'})(?=obj |\Z)").match
    return match, builds, renderers


def _targets_hold(model: InstanceModel, targets) -> bool:
    """Whether each reference the build left unchecked (``targets``: (target
    class, reference name, many, position) -> the objects holding such a
    reference) names an object of its class, as ``InstanceModel.add``
    checks it, each then linked to its target's own id string."""
    get, own_id = model._objects.get, attrgetter("id")
    try:
        for (cls, _, many, k), holders in targets.items():
            values = [holder._values[k] for holder in holders]
            found = list(map(get, chain.from_iterable(values) if many else values))
            if not set(map(attrgetter("class_name"), found)) <= {cls}:
                return False
            ids = map(own_id, found)
            for holder, value in zip(holders, values):
                new = list(holder._values)
                new[k] = tuple(islice(ids, len(value))) if many else next(ids)
                _set_values(holder, tuple(new))
    except AttributeError:  # None has no class: a target that is no object
        return False
    return True


def _decode_model_canonical(text, schema: MetaModel) -> InstanceModel | None:
    """Decode text exactly as ``encode_model`` writes it, one match per
    object, keeping the text as ``KeptBlocks`` with the encoder's reader
    started, so an encode gives it back unchanged.  None at the first
    object it cannot read, and for a repeated id or a target that
    ``_targets_hold`` refuses: the line reader decides those."""
    match_object, builds, _ = _kernels(schema)
    model = InstanceModel(schema)
    objects, ref, bounds = model._objects, model._ref, array("q", (0,))
    get = objects.get
    targets = {(r.target, r.name, r.many, c.slots[r.name]): []
               for c in schema.classes.values() for r in c.references.values()}
    pos, end = 0, len(text)
    try:
        while pos < end:
            if (match := match_object(text, pos)) is None:
                return None
            obj = builds[match.lastindex](match, ref, targets, get)
            objects[obj.id] = obj
            pos = match.end()
            bounds.append(pos)
    except ValueError:  # a repeated target
        return None
    if len(objects) < len(bounds) - 1 or not _targets_hold(model, targets):
        return None
    model.blocks = KeptBlocks(text, bounds, objects.values())
    model.seen(ENCODE)
    return model


def decode_model(text, schema: MetaModel) -> InstanceModel:
    """Parse an instance file.  Objects may forward-reference; targets are
    checked once the whole file is read.  Text exactly in the encoder's
    layout is read by one regular expression per object; any other text
    by the line reader, which alone defines what is accepted, and turns
    each error of the model layer into a ``FormatError`` naming the line."""
    model = _decode_model_canonical(text, schema)
    return model if model is not None else _decode_model_lines(text, schema)


def _decode_model_lines(text, schema: MetaModel) -> InstanceModel:
    """The general instance reader, with a line number on every error."""
    model = InstanceModel(schema)
    obj = None
    pending_refs = []  # (lineno, obj, reference name, target id), set once every object is in
    lineno = 0
    try:
        for lineno, line in significant_lines(text):
            if not line.startswith(" "):
                tokens = line.split()
                if len(tokens) != 3 or tokens[0] != "obj":
                    raise FormatError(f"expected 'obj <id> <Class>', got {line!r}")
                obj = model.new_object(tokens[2], tokens[1])
                references = schema.classes[obj.class_name].references
                continue
            if not line.startswith("  ") or line.startswith("   "):
                raise FormatError("feature lines must be indented two spaces")
            if obj is None:
                raise FormatError("feature line before any 'obj' line")
            name, _, value = line[2:].partition(" ")
            value = value.strip()
            if name in references:
                if not value or " " in value:
                    raise FormatError(f"reference {name!r} needs a single target id")
                pending_refs.append((lineno, obj, name, value))
            else:
                model.set_attribute_text(obj, name, value)
        for lineno, obj, name, target_id in pending_refs:
            model.set_reference(obj, name, target_id)
    except MigrationError as e:
        raise FormatError(str(e), line=lineno) from None
    return model
