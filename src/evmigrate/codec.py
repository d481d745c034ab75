"""Bit-exact serialization of command logs and instance models.

The command log is a pinned, YAML-compatible subset with two-space
indentation; no YAML library is involved so the bytes stay canonical.
Encoding is deterministic: commands sorted by (kind, id) with persons
before dogs, optional fields omitted when UNSET.  String values run
verbatim to end of line (trimmed).  No id or value may hold a character
at which ``str.splitlines`` breaks a line: ``Command`` and the model
layer refuse one, so no value can forge a line of its own.

The decoder accepts more than the encoder writes: blank lines and
full-line ``#`` comments anywhere, any line ending that
``str.splitlines`` knows, trailing whitespace, fields in any order inside
a block, field lines indented four or more spaces, and whitespace around
keys and values.

Both formats have two readers.  Text in the encoder's layout whose values
need no trimming is read by one regular expression per command block or
per object; anything else goes through the line-by-line reader, which
alone defines what is accepted and what each error says.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .commands import _OWNED_KINDS, SPECS, Command, _id_of, _trusted, check_reference_year
from .editor import EventStore
from .errors import FormatError, MigrationError
from .metamodel import (
    KIND_INT,
    LINE_BREAKS,
    InstanceModel,
    MetaModel,
    _check_target,
    _object,
    _set_model,
    significant_lines,
)

FORMAT_VERSION = 1
_NL = "\n"  # a line end inside a replacement field, where no backslash may go


@dataclass
class CommandLogDocument:
    format_version: int
    reference_year: int
    commands: list[Command]


def _parse_int(text, lineno, what):
    try:
        return int(text, 10)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {text!r}", line=lineno) from None


# -- command logs -------------------------------------------------------


def encode_log(store: EventStore, reference_year) -> str:
    """Canonical text for an event store; stable across calls."""
    out = [f"format: {FORMAT_VERSION}\nreferenceYear: {reference_year}\ncommands:\n"]
    for kind, obj_id, name, age, owner_id in store.commands():
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
# lines, keys and values.
_VALUE = rf"\S(?:[^{LINE_BREAKS}]*\S)?"
_CANONICAL_HEAD = re.compile(rf"format: {FORMAT_VERSION}\nreferenceYear: ([1-9][0-9]*)\ncommands:\n")
# Group 2 matches, empty, after a kind that carries an ownerId, and only
# then may an ownerId line follow; an empty name ("    name:") is group 6.
_CANONICAL_BLOCK = re.compile(
    rf"  - command: ({'|'.join(kind for kind in SPECS if kind not in _OWNED_KINDS)}"
    rf"|(?:{'|'.join(kind for kind in SPECS if kind in _OWNED_KINDS)})())\n"
    rf"    id: ({_VALUE})\n"
    rf"(?(2)(?:    ownerId: ({_VALUE})\n)?)"
    rf"(?:    name:(?: ({_VALUE})|())\n)?"
    rf"(?:    age: (-?[0-9]+)\n)?"
)
#: each kind's own string, so that stored commands share it
_KIND = {kind: kind for kind in SPECS}


def _decode_canonical(text) -> CommandLogDocument | None:
    """Decode text in the encoder's layout; None for anything else: other
    valid layouts, values the line reader would trim, and every input it
    would reject.

    The pattern admits only what ``Command`` checks (a known kind, a
    non-empty id, no line break, ownerId only where allowed), so the
    commands are built unchecked."""
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    pos = head.end()
    end = len(text)
    match_block = _CANONICAL_BLOCK.match
    cmds: list[Command] = []
    try:
        while pos < end:
            block = match_block(text, pos)
            if block is None:
                return None
            pos = block.end()
            kind, _, obj_id, owner_id, name, empty, age = block.groups()
            cmds.append(_trusted((_KIND[kind], obj_id, empty if name is None else name,
                                  None if age is None else int(age, 10), owner_id)))
        if len(set(map(_id_of, cmds))) != len(cmds):
            return None
        return CommandLogDocument(FORMAT_VERSION, int(head[1], 10), cmds)
    except ValueError:  # int() refuses too many digits
        return None


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
        cmds.append(
            Command(kind, obj_id, name=fields.get("name"), age=age,
                    owner_id=fields.get("ownerId"))
        )
    return CommandLogDocument(FORMAT_VERSION, headers["referenceYear"], cmds)


# -- instance models -----------------------------------------------------


#: the model reader ``encode_model`` keeps its place under
ENCODE = "encode"


def encode_model(model: InstanceModel) -> str:
    """Instance file text: objects in model order, features in declaration
    order, one line per many-reference target.

    A model that keeps its blocks (see ``keep_blocks``) re-renders only
    the objects it marked changed since the last encode and re-joins only
    their chunks, so copying the text out is the one step that grows with
    the model; any other model is rendered in full."""
    changed = model.unseen(ENCODE)
    kept = model.blocks
    if changed is None or kept is None:
        classes = model.schema.classes
        lines = []
        for obj in model.objects.values():
            _render(lines, obj, classes.get(obj.class_name) or model.schema.cls(obj.class_name))
        lines.append("")
        return "\n".join(lines) if len(lines) > 1 else ""
    blocks, at, size, texts = kept.blocks, kept.at, kept.size, kept.texts
    stale = set()
    for obj in changed:
        pos = at.get(obj)
        if pos is None:  # a new object: ``add`` put it last in the model
            pos = at[obj] = len(blocks)
            blocks.append(_block(obj, model))
        else:
            blocks[pos] = _block(obj, model)
        stale.add(pos // size)
    for i in sorted(stale):  # a new chunk is inserted after every older one
        texts[i] = "".join(blocks[i * size:(i + 1) * size])
    model.seen(ENCODE)
    return "".join(texts.values())


#: objects per chunk of kept blocks
CHUNK = 256


class KeptBlocks:
    """A model's instance-file text, kept for ``encode_model``: one block
    per object in model order, each object's position among them, and the
    joined text of every chunk of ``size`` blocks, so an edit re-joins
    only its own chunk (a rope of one level: Boehm, Atkinson and Plass,
    "Ropes: an Alternative to Strings", 1995)."""

    __slots__ = ("blocks", "at", "size", "texts")

    def __init__(self, blocks, at):
        self.blocks = blocks
        #: object -> its block's index in ``blocks``
        self.at = at
        self.size = size = CHUNK
        #: chunk index -> the chunk's joined blocks, in chunk order
        self.texts = {i // size: "".join(blocks[i:i + size]) for i in range(0, len(blocks), size)}


def keep_blocks(model: InstanceModel):
    """Keep the model's text from now on as ``KeptBlocks``, so each later
    encode re-renders only the objects that changed and re-joins only
    their chunks.  A model read by the canonical decoder slices the blocks
    of the objects it read from that text, and leaves the objects written
    or added since marked for the next encode; any other model costs one
    full render."""
    if model.blocks is not None:
        return
    objects = model.objects.values()
    if model.unseen(ENCODE) is None or model.source is None:
        blocks = [_block(obj, model) for obj in objects]
        model.seen(ENCODE)
    else:
        text, bounds = model.source
        blocks = [text[start:end] for start, end in zip(bounds, bounds[1:])]
        objects = islice(objects, len(blocks))
    model.source = None
    model.blocks = KeptBlocks(blocks, {obj: pos for pos, obj in enumerate(objects)})


def _block(obj, model: InstanceModel) -> str:
    lines = []
    _render(lines, obj, model.schema.classes.get(obj.class_name) or model.schema.cls(obj.class_name))
    lines.append("")
    return "\n".join(lines)


def _render(lines, obj, cls):
    """Append one object's lines.  The model holds no line break in a
    value or target (every write checks), so none can forge a line."""
    lines.append(f"obj {obj.id} {obj.class_name}")
    values = obj._attributes
    for name in cls.attributes:
        if name in values:
            lines.append(f"  {name} {values[name]}".rstrip())
    references = obj._references
    for name, rdef in cls.references.items():
        value = references.get(name)
        if value is None:
            continue
        for target in value if rdef.many else (value,):
            lines.append(f"  {name} {target}")


# ``encode_model``'s layout: an object line, then per feature in declaration
# order at most one line (a run for a many-reference); ids are single tokens.
_OBJECT_HEAD = re.compile(r"obj (\S+) (\S+)\n")


@lru_cache(maxsize=64)
def _model_readers(schema: MetaModel):
    """Class name -> (match of its feature lines, per group (feature,
    conversion, whether a reference), the name for objects to share).
    A feature line ``#...`` would read as a comment: it gets no group."""
    readers = {}
    for cls in schema.classes.values():
        parts, groups = [], []
        for name, feature in (*cls.attributes.items(), *cls.references.items()):
            if name.startswith("#"):
                continue
            line = "  " + re.escape(name)
            is_reference = name in cls.references
            if is_reference and feature.many:
                part = rf"((?:{line} \S+\n)+)?"  # a target written twice fails check_targets
                convert = lambda run: tuple(run.split()[1::2])
            elif is_reference:
                part, convert = rf"(?:{line} (\S+)\n)?", str
            elif feature.kind == KIND_INT:  # as ``str(int)`` writes it
                part, convert = rf"(?:{line} (0|-?[1-9][0-9]*)\n)?", int
            else:  # an empty string is written as "  name"
                part, convert = rf"(?:{line}( {_VALUE}|)\n)?", lambda value: value[1:]
            parts.append(part)
            groups.append((name, convert, is_reference))
        readers[cls.name] = (re.compile("".join(parts)).match, groups, cls.name)
    return readers


def _decode_model_canonical(text, schema: MetaModel) -> InstanceModel | None:
    """Decode text exactly as ``encode_model`` writes it, which it then
    gives back unchanged; None for anything else: other valid layouts and
    every input the line reader would reject.  The patterns admit only
    declared features and values of their kind, so objects go in
    unchecked but for their ids; targets are checked once all are read.
    Where each object's text starts and ends is kept (``model.source``,
    for ``keep_blocks``), and the encoder's reader starts here."""
    # Marks the encoder never writes, found by a scan before any object is
    # built: a carriage return, a trailing space, a blank or comment line,
    # no final line break.
    if ("\r" in text or " \n" in text or "\n\n" in text or text[-1:] not in ("\n", "")
            or "#" in text and ("\n#" in text or "\n  #" in text)):
        return None
    readers = _model_readers(schema)
    model = InstanceModel(schema)
    objects, ref, bounds = model._objects, model._ref, array("q", (0,))
    pos, end = 0, len(text)
    try:
        while pos < end:
            head = _OBJECT_HEAD.match(text, pos)
            reader = readers.get(head[2]) if head is not None else None
            if reader is None or head[1] in objects:
                return None
            match_body, groups, class_name = reader
            body = match_body(text, head.end())  # every line is optional: it matches
            pos = body.end()
            bounds.append(pos)
            features = ({}, {})  # attributes, references
            for (name, convert, is_reference), value in zip(groups, body.groups()):
                if value is not None:
                    features[is_reference][name] = convert(value)
            obj = objects[head[1]] = _object(head[1], class_name, *features)
            _set_model(obj, ref)
        classes = schema.classes
        for obj in objects.values():
            model.check_targets(obj, classes[obj.class_name])
    except (MigrationError, ValueError):  # int() refuses too many digits
        return None
    model.source = (text, bounds)
    model.seen(ENCODE)
    return model


def decode_model(text, schema: MetaModel) -> InstanceModel:
    """Parse an instance file.  Objects may forward-reference; targets are
    checked once the whole file is read.  Text in the encoder's layout is
    read by one regular expression per object; the line reader alone
    defines what is accepted, and turns each error of the model layer into
    a ``FormatError`` naming the line."""
    model = _decode_model_canonical(text, schema)
    return model if model is not None else _decode_model_lines(text, schema)


def _decode_model_lines(text, schema: MetaModel) -> InstanceModel:
    """The general instance reader, with a line number on every error."""
    model = InstanceModel(schema)
    obj = None
    pending_refs = []  # (lineno, obj, ReferenceDef, target id)
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
                rdef = references[name]
                model._link(obj, rdef, value)  # its target is checked below
                pending_refs.append((lineno, obj, rdef, value))
            else:
                model.set_attribute_text(obj, name, value)
        for lineno, obj, rdef, target_id in pending_refs:
            _check_target(obj, rdef, target_id, model.get(target_id))
    except MigrationError as e:
        raise FormatError(str(e), line=lineno) from None
    return model
