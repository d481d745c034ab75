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
keys and values.  Text in the encoder's layout whose values need no
trimming is read by one regular expression per block; anything else goes
through the line-by-line reader, which alone defines what is accepted and
what each error says.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .commands import SPECS, Command, canonical_order, check_reference_year
from .editor import EventStore
from .errors import FormatError, MigrationError
from .metamodel import LINE_BREAKS, InstanceModel, MetaModel, significant_lines

FORMAT_VERSION = 1


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


def encode_commands(cmds, reference_year) -> str:
    return _encode_ordered(canonical_order(cmds), reference_year)


def encode_log(store: EventStore, reference_year) -> str:
    """Canonical text for an event store; stable across calls."""
    return _encode_ordered(store.commands(), reference_year)


def _encode_ordered(cmds, reference_year) -> str:
    out = [f"format: {FORMAT_VERSION}", f"referenceYear: {reference_year}", "commands:"]
    for cmd in cmds:
        out.append(f"  - command: {cmd.kind}")
        out.append(f"    id: {cmd.id}")
        if cmd.owner_id is not None:
            out.append(f"    ownerId: {cmd.owner_id}")
        if cmd.name is not None:
            # empty names leave no trailing blank; the wire trims values anyway
            out.append(f"    name: {cmd.name}".rstrip())
        if cmd.age is not None:
            out.append(f"    age: {cmd.age}")
    return "\n".join(out) + "\n"


_HEADERS = ("format", "referenceYear")


def _split_entry(line, lineno):
    key, sep, value = line.partition(":")
    if not sep:
        raise FormatError(f"expected 'key: value', got {line.strip()!r}", line=lineno)
    return key.strip(), value.strip()


# The canonical layout, as ``encode_commands`` writes it.  A value is
# non-empty, has no whitespace at either end and no character at which
# ``str.splitlines`` would break, so the line reader would see the same
# lines, keys and values.
_VALUE = rf"\S(?:[^{LINE_BREAKS}]*\S)?"
_CANONICAL_HEAD = re.compile(rf"format: {FORMAT_VERSION}\nreferenceYear: ([1-9][0-9]*)\ncommands:\n")
_CANONICAL_BLOCK = re.compile(
    rf"  - command: ({'|'.join(map(re.escape, SPECS))})\n"
    rf"    id: ({_VALUE})\n"
    rf"(?:    ownerId: ({_VALUE})\n)?"
    rf"(?:    name:( {_VALUE}|)\n)?"  # an empty name is written as "    name:"
    rf"(?:    age: (-?[0-9]+)\n)?"
)


def _decode_canonical(text) -> CommandLogDocument | None:
    """Decode text in the encoder's layout; None for anything else: other
    valid layouts, values the line reader would trim, and every input it
    would reject."""
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    pos = head.end()
    end = len(text)
    match_block = _CANONICAL_BLOCK.match
    cmds: list[Command] = []
    seen_ids = set()
    while pos < end:
        block = match_block(text, pos)
        if block is None:
            return None
        pos = block.end()
        kind, obj_id, owner_id, name, age = block.groups()
        if obj_id in seen_ids or (owner_id is not None and "ownerId" not in SPECS[kind][1]):
            return None
        seen_ids.add(obj_id)
        name = None if name is None else name[1:]
        age = None if age is None else int(age, 10)
        cmds.append(Command(kind, obj_id, name, age, owner_id))
    return CommandLogDocument(FORMAT_VERSION, int(head[1], 10), cmds)


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


def encode_model(model: InstanceModel) -> str:
    """Instance file text: objects in model order, features in declaration
    order, one line per many-reference target."""
    out = []
    for obj in model.objects.values():
        cls = model.schema.cls(obj.class_name)
        out.append(f"obj {obj.id} {obj.class_name}")
        for name in cls.attributes:
            if name in obj.attributes:
                out.append(f"  {name} {obj.attributes[name]}".rstrip())
        for name, rdef in cls.references.items():
            value = obj.references.get(name)
            if value is None:
                continue
            for target in value if rdef.many else [value]:
                out.append(f"  {name} {target}")
    return "\n".join(out) + "\n" if out else ""


def decode_model(text, schema: MetaModel) -> InstanceModel:
    """Parse an instance file.  Objects may forward-reference; targets are
    checked once the whole file is read.  The model layer checks every
    object, feature and value; an error it raises comes back as a
    ``FormatError`` naming the line."""
    model = InstanceModel(schema)
    obj = None
    pending_refs = []  # (lineno, obj, ref name, target id)
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
                model.set_reference(obj, name, value)
                pending_refs.append((lineno, obj, name, value))
            else:
                model.set_attribute_text(obj, name, value)
        for lineno, obj, name, target_id in pending_refs:
            model.check_target(obj, name, target_id)
    except MigrationError as e:
        raise FormatError(str(e), line=lineno) from None
    return model
