"""Bit-exact serialization of command logs and instance models.

The command log is a pinned, YAML-compatible subset with two-space
indentation; no YAML library is involved so the bytes stay canonical.
Encoding is deterministic: commands sorted by (kind, id) with persons
before dogs, optional fields omitted when UNSET.  String values run
verbatim to end of line (trimmed; newlines unsupported).
"""

from __future__ import annotations

from dataclasses import dataclass

from .commands import SPECS, Command, canonical_order, check_reference_year
from .editor import EventStore
from .errors import FormatError
from .metamodel import InstanceModel, KIND_INT, MetaModel

FORMAT_VERSION = 1


@dataclass
class CommandLogDocument:
    format_version: int
    reference_year: int
    commands: list[Command]


def _significant_lines(text):
    """Yield (lineno, line) skipping blanks and full-line # comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        stripped = line.lstrip()
        if not stripped or stripped[0] == "#":
            continue
        yield lineno, line


def _parse_int(text, lineno, what):
    try:
        return int(text, 10)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {text!r}", line=lineno) from None


# -- command logs -------------------------------------------------------


def encode_commands(cmds, reference_year) -> str:
    out = [f"format: {FORMAT_VERSION}", f"referenceYear: {reference_year}", "commands:"]
    for cmd in canonical_order(cmds):
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


def encode_log(store: EventStore, reference_year) -> str:
    """Canonical text for an event store; stable across calls."""
    return encode_commands(store.commands(), reference_year)


_HEADERS = ("format", "referenceYear")


def _split_entry(line, lineno):
    key, sep, value = line.partition(":")
    if not sep:
        raise FormatError(f"expected 'key: value', got {line.strip()!r}", line=lineno)
    return key.strip(), value.strip()


def decode_log(text) -> CommandLogDocument:
    """Parse a command log.  Commands come back in wire order; field order
    inside a block is free, and the document is re-canonicalized on
    encode (persons first, then by id).  Receivers need no particular
    order: ``Editor.merge_all`` sorts by (class, id) itself."""
    lines = list(_significant_lines(text))
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
            fkey, sep, fvalue = fline.partition(":")
            if not sep:
                raise FormatError(f"expected 'key: value', got {fline.strip()!r}", line=flineno)
            fkey = fkey.strip()
            if fkey not in allowed:
                raise FormatError(f"field {fkey!r} is not valid for {kind}", line=flineno)
            if fkey in fields:
                raise FormatError(f"duplicate field {fkey!r}", line=flineno)
            fields[fkey] = fvalue.strip()
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
    checked once the whole file is read."""
    model = InstanceModel(schema)
    current = None
    pending_refs = []  # (lineno, obj, ref name, target id)
    for lineno, line in _significant_lines(text):
        if not line.startswith(" "):
            tokens = line.split()
            if len(tokens) != 3 or tokens[0] != "obj":
                raise FormatError(f"expected 'obj <id> <Class>', got {line!r}", line=lineno)
            _, obj_id, class_name = tokens
            if not schema.has_class(class_name):
                raise FormatError(f"unknown class {class_name!r}", line=lineno)
            if model.get(obj_id) is not None:
                raise FormatError(f"duplicate object id {obj_id!r}", line=lineno)
            current = model.new_object(class_name, obj_id)
            continue
        if not (line.startswith("  ") and not line.startswith("   ")):
            raise FormatError("feature lines must be indented two spaces", line=lineno)
        if current is None:
            raise FormatError("feature line before any 'obj' line", line=lineno)
        body = line[2:]
        name, _, rest = body.partition(" ")
        value = rest.strip()
        cls = schema.cls(current.class_name)
        if name in cls.attributes:
            if cls.attributes[name].kind == KIND_INT:
                current.attributes[name] = _parse_int(value, lineno, f"attribute {name!r}")
            else:
                current.attributes[name] = value
        elif name in cls.references:
            if not value or " " in value:
                raise FormatError(f"reference {name!r} needs a single target id", line=lineno)
            model.set_reference(current, name, value)
            pending_refs.append((lineno, current, name, value))
        else:
            raise FormatError(
                f"class {current.class_name} declares no feature {name!r}", line=lineno
            )
    for lineno, obj, name, target_id in pending_refs:
        target = model.get(target_id)
        if target is None:
            raise FormatError(f"reference target {target_id!r} does not exist", line=lineno)
        expected = schema.cls(obj.class_name).references[name].target
        if target.class_name != expected:
            raise FormatError(
                f"reference target {target_id!r} is a {target.class_name}, "
                f"expected {expected}",
                line=lineno,
            )
    return model
