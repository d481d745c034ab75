"""Dynamic schema layer and instance model.

Classes, attributes and references are declared in data (parsed from a
plain-text schema file) and queried at runtime, so one command
implementation can serve any schema variant.  Objects are attribute
maps; an attribute that was never set is UNSET, which is distinct from
empty string or zero and is represented as the absence of the key.

A model records which of its objects were written, so readers that
derive something per object (the editor's parse, the instance encoder)
redo only the changed ones.  Once a model tracks writes, an object's
``attributes`` and ``references`` are tracked mappings that mark it
changed on every write.  Replacing a many-reference list is a write;
editing the list in place is not.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .errors import ModelError, SchemaError

KIND_STRING = "string"
KIND_INT = "int"
_KINDS = (KIND_STRING, KIND_INT)

MULT_ONE = "one"
MULT_MANY = "many"

#: every character at which ``str.splitlines`` breaks a line
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def has_line_break(text) -> bool:
    """Every file format here is line-based, so no id or string value may
    hold a line break.  All of them are unprintable: printable text needs
    no split."""
    return not text.isprintable() and text.splitlines() != [text]


@dataclass(frozen=True)
class AttributeDef:
    name: str
    kind: str  # "string" | "int"


@dataclass(frozen=True)
class ReferenceDef:
    name: str
    target: str  # class name, resolved against the owning MetaModel
    many: bool


class MetaClass:
    """A declared class: named attribute and reference slots.

    Attribute and reference names share one namespace within the class;
    the instance file grammar needs the first token of a line to identify
    the feature unambiguously.
    """

    def __init__(self, name, attributes=(), references=()):
        self.name = name
        self.attributes: dict[str, AttributeDef] = {}
        self.references: dict[str, ReferenceDef] = {}
        for feature in (*attributes, *references):
            self.add(feature)

    def add(self, feature: AttributeDef | ReferenceDef):
        """Declare one attribute or reference."""
        if feature.name in self.attributes or feature.name in self.references:
            raise SchemaError(f"duplicate feature {feature.name!r} in class {self.name}")
        if isinstance(feature, ReferenceDef):
            self.references[feature.name] = feature
        elif feature.kind in _KINDS:
            self.attributes[feature.name] = feature
        else:
            raise SchemaError(
                f"unknown attribute kind {feature.kind!r} on {self.name}.{feature.name} "
                f"(use string or int)"
            )

    def attribute(self, name) -> AttributeDef:
        try:
            return self.attributes[name]
        except KeyError:
            raise ModelError(f"class {self.name} has no attribute {name!r}") from None

    def reference(self, name) -> ReferenceDef:
        try:
            return self.references[name]
        except KeyError:
            raise ModelError(f"class {self.name} has no reference {name!r}") from None

    def __repr__(self):
        return f"MetaClass({self.name!r})"


class MetaModel:
    """A set of uniquely named classes with resolved reference targets."""

    def __init__(self, name, classes):
        self.name = name
        self.classes: dict[str, MetaClass] = {}
        for c in classes:
            self.add(c)
        for c in self.classes.values():
            for r in c.references.values():
                self.check_target(c, r)

    def add(self, cls: MetaClass):
        """Declare a class; its reference targets are left to ``check_target``."""
        if cls.name in self.classes:
            raise SchemaError(f"duplicate class {cls.name!r}")
        self.classes[cls.name] = cls

    def check_target(self, cls: MetaClass, ref: ReferenceDef):
        if ref.target not in self.classes:
            raise SchemaError(
                f"reference {cls.name}.{ref.name} targets undeclared class {ref.target!r}"
            )

    def cls(self, class_name) -> MetaClass:
        try:
            return self.classes[class_name]
        except KeyError:
            raise SchemaError(f"unknown class {class_name!r}") from None

    def __repr__(self):
        return f"MetaModel({self.name!r}, classes={list(self.classes)})"


def significant_lines(text):
    """Yield (lineno, line) skipping blanks and full-line # comments; each
    line loses its trailing whitespace."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        stripped = line.lstrip()
        if not stripped or stripped[0] == "#":
            continue
        yield lineno, line


def load_schema(text, name="model") -> MetaModel:
    """Parse schema text into a MetaModel.

    Grammar: ``class <Name>`` at column 0, feature lines indented exactly
    two spaces: ``attr <name> <string|int>`` or
    ``ref <name> -> <Target> <one|many>``.  Blank lines and full-line
    ``#`` comments are ignored.  Every error names the line it is on.
    """
    schema = MetaModel(name, ())
    cls = None
    refs: list[tuple[int, MetaClass, ReferenceDef]] = []  # targets checked after all classes
    lineno = 0
    try:
        for lineno, line in significant_lines(text):
            tokens = line.split()
            if not line.startswith(" "):
                if len(tokens) != 2 or tokens[0] != "class":
                    raise SchemaError(f"expected 'class <Name>', got {line!r}")
                cls = MetaClass(tokens[1])
                schema.add(cls)
            elif not line.startswith("  ") or line.startswith("   "):
                raise SchemaError("feature lines must be indented two spaces")
            elif cls is None:
                raise SchemaError("feature line before any class")
            elif tokens[0] == "attr" and len(tokens) == 3:
                cls.add(AttributeDef(tokens[1], tokens[2]))
            elif tokens[0] == "ref" and len(tokens) == 5 and tokens[2] == "->":
                if tokens[4] not in (MULT_ONE, MULT_MANY):
                    raise SchemaError(f"unknown multiplicity {tokens[4]!r} (use one or many)")
                ref = ReferenceDef(tokens[1], tokens[3], tokens[4] == MULT_MANY)
                cls.add(ref)
                refs.append((lineno, cls, ref))
            else:
                raise SchemaError(f"malformed feature line {line.strip()!r}")
        for lineno, cls, ref in refs:
            schema.check_target(cls, ref)
    except SchemaError as e:
        raise SchemaError(str(e), line=lineno) from None
    return schema


class TrackedDict(dict):
    """A dict that, once bound to a model, marks the object it belongs to
    changed there on every write through its own methods.  ``commands.run``
    writes through plain ``dict`` methods and marks the object once
    instead.

    The link is a weak reference to the model plus the owner's id: a
    strong one would make every object a reference cycle, which only the
    cyclic collector can free.  A copy is an unbound, plain-content copy."""

    __slots__ = ("model_ref", "owner_id")  # both unset until bound

    def __reduce__(self):
        return TrackedDict, (dict(self),)


def _marking(write):
    def tracked_write(self, *args, **kwargs):
        result = write(self, *args, **kwargs)
        try:
            model = self.model_ref()
        except AttributeError:  # not bound to a model
            return result
        if model is not None:
            owner = model.objects.get(self.owner_id)
            if owner is not None:
                model.mark(owner)
        return result

    tracked_write.__name__ = write.__name__
    return tracked_write


for _name in ("__setitem__", "__delitem__", "pop", "popitem", "setdefault", "update",
              "clear", "__ior__"):
    setattr(TrackedDict, _name, _marking(getattr(dict, _name)))


@dataclass(eq=False)
class DynamicObject:
    """A schema-conforming instance.

    ``eq=False`` keeps identity hashing so editors can key registries by
    the object itself.  Value comparison goes through ``model_equals``.
    The mappings are plain dicts until the object's model starts tracking
    writes (see ``InstanceModel.seen``), which makes them ``TrackedDict``s.
    """

    id: str
    class_name: str
    attributes: dict = field(default_factory=dict)  # name -> str | int (absent = UNSET)
    references: dict = field(default_factory=dict)  # name -> id | list[id]

    def __repr__(self):
        return f"DynamicObject({self.id!r}, {self.class_name!r})"


class InstanceModel:
    """Objects keyed by id, governed by one schema.  Every check of an
    object against the schema lives here.

    The model also records which objects changed, per reader: a reader
    (a name, say ``"parse"``) takes ``unseen(reader)``, the objects marked
    since it last called ``seen(reader)``, so each reader keeps its own
    place.  An object is marked when it is added, when a write to its
    tracked mappings changes it (the setters write through them), and
    when ``mark_all`` marks every object; a reader that never called
    ``seen`` gets None, meaning every object.  Marks are kept only once
    some reader has called ``seen``: that is when the model binds its
    objects' mappings, which stay plain dicts until then.  Each reader
    decides when tracking pays, so a model read once pays nothing."""

    #: instance-file text per object, kept by ``codec.encode_model``
    blocks: dict[DynamicObject, str] | None = None
    _ref = None  # the weak reference bound mappings hold, made on first use

    def __init__(self, schema: MetaModel):
        self.schema = schema
        self.objects: dict[str, DynamicObject] = {}
        #: reader -> the objects marked since it last called ``seen`` (a
        #: dict as an ordered set); empty while the model tracks no writes
        self.readers: dict[str, dict[DynamicObject, None]] = {}

    def __setstate__(self, state):
        """A copy (``copy.deepcopy``) binds its own objects."""
        self.__dict__.update(state)
        self.__dict__.pop("_ref", None)
        if self.readers:
            self._bind_all()

    def __len__(self):
        return len(self.objects)

    def get(self, obj_id) -> DynamicObject | None:
        return self.objects.get(obj_id)

    def add(self, obj: DynamicObject) -> DynamicObject:
        if obj.class_name not in self.schema.classes:
            self.schema.cls(obj.class_name)  # raises the error
        if not (obj.id and obj.id.isprintable()):  # printable ids need no split
            _check_id(obj.id)
        if obj.id in self.objects:
            raise ModelError(f"duplicate object id {obj.id!r}")
        self.objects[obj.id] = obj
        if self.readers:
            self._bind_all((obj,))
            self.mark(obj)
        return obj

    def new_object(self, class_name, obj_id) -> DynamicObject:
        """Create an object with all attributes UNSET and add it."""
        return self.add(DynamicObject(obj_id, class_name))

    def _bind_all(self, objects=None):
        """Give every object (or each of ``objects``) tracked mappings
        bound here.  The references of a class that declares none stay
        as they are: no reader reads an undeclared feature."""
        ref = self._ref
        if ref is None:
            ref = self._ref = weakref.ref(self)
        classes = self.schema.classes
        for obj in self.objects.values() if objects is None else objects:
            attributes = obj.attributes
            if type(attributes) is not TrackedDict:
                obj.attributes = attributes = TrackedDict(attributes)
            attributes.model_ref = ref
            attributes.owner_id = obj.id
            cls = classes.get(obj.class_name)
            if cls is not None and not cls.references:
                continue
            references = obj.references
            if type(references) is not TrackedDict:
                obj.references = references = TrackedDict(references)
            references.model_ref = ref
            references.owner_id = obj.id

    def tracks(self, obj: DynamicObject) -> bool:
        """Whether writes to the object's mappings are marked here."""
        return self._ref is not None and getattr(obj.attributes, "model_ref", None) is self._ref

    def mark_all(self):
        """Mark every object changed, binding it again, which turns plain
        dicts put on it into tracked mappings."""
        if self.readers:
            self._bind_all()
            for unseen in self.readers.values():
                unseen.update(dict.fromkeys(self.objects.values()))

    def mark(self, obj: DynamicObject):
        """Record that ``obj`` changed, for every reader."""
        for unseen in self.readers.values():
            unseen[obj] = None

    def unseen(self, reader) -> dict[DynamicObject, None] | None:
        """The objects marked since ``reader`` last called ``seen``, in the
        order first marked; None if it never called it."""
        return self.readers.get(reader)

    def seen(self, reader):
        """``reader`` is up to date: its ``unseen`` restarts empty."""
        if not self.readers:  # the first reader: track writes from now on
            self._bind_all()
        self.readers[reader] = {}

    def set_attribute(self, obj: DynamicObject, name, value):
        adef = self.schema.cls(obj.class_name).attribute(name)
        _check_value(obj, adef, value)
        obj.attributes[name] = value

    def set_attribute_text(self, obj: DynamicObject, name, text):
        """Set attribute ``name`` of ``obj`` from its text form: an int
        attribute takes ``text`` as a base-10 integer."""
        cls = self.schema.classes.get(obj.class_name) or self.schema.cls(obj.class_name)
        adef = cls.attributes.get(name) or cls.attribute(name)
        value = text
        if adef.kind == KIND_INT:
            try:
                value = int(text, 10)
            except ValueError:
                pass  # the check below names the expected kind
        _check_value(obj, adef, value)
        obj.attributes[name] = value

    def set_reference(self, obj: DynamicObject, name, target_id):
        """Assign (one) or add-if-absent (many, by replacing the list).
        Targets are checked by ``check_target``, not here, so files may
        forward-reference."""
        cls = self.schema.classes.get(obj.class_name) or self.schema.cls(obj.class_name)
        if (cls.references.get(name) or cls.reference(name)).many:
            targets = obj.references.get(name, [])
            if target_id in targets:
                return
            target_id = [*targets, target_id]
        obj.references[name] = target_id

    def check_target(self, obj: DynamicObject, name, target_id):
        """Check that ``target_id`` may be a target of reference ``name`` of
        ``obj``: the object exists and is of the declared target class."""
        cls = self.schema.classes.get(obj.class_name) or self.schema.cls(obj.class_name)
        expected = (cls.references.get(name) or cls.reference(name)).target
        target = self.objects.get(target_id)
        if target is None:
            raise ModelError(f"{obj.id}.{name}: unknown target {target_id!r} (it does not exist)")
        if target.class_name != expected:
            raise ModelError(
                f"{obj.id}.{name}: target {target_id!r} is a {target.class_name}, "
                f"expected {expected}"
            )

    def validate(self):
        """Check every invariant: ids, declared features, values, targets."""
        classes = self.schema.classes
        for obj_id, obj in self.objects.items():
            if obj.id != obj_id:
                raise ModelError(f"object stored under {obj_id!r} carries id {obj.id!r}")
            if not (obj_id and obj_id.isprintable()):  # printable ids need no split
                _check_id(obj_id)
            # a plain lookup first: the method call is only for its error
            cls = classes.get(obj.class_name) or self.schema.cls(obj.class_name)
            attributes, references = cls.attributes, cls.references
            for name, value in obj.attributes.items():
                _check_value(obj, attributes.get(name) or cls.attribute(name), value)
            for name, value in obj.references.items():
                many = (references.get(name) or cls.reference(name)).many
                for target_id in value if many else (value,):
                    self.check_target(obj, name, target_id)


def _check_id(obj_id):
    """The one check of an object id."""
    if not obj_id or has_line_break(obj_id):
        raise ModelError(f"object id must be non-empty and hold no line break, got {obj_id!r}")


def _check_value(obj: DynamicObject, adef: AttributeDef, value):
    """The one check of an attribute value against its declared kind."""
    if adef.kind == KIND_INT:
        if isinstance(value, int) and not isinstance(value, bool):
            return
        expected = "an integer"
    elif isinstance(value, str) and (value.isprintable() or not has_line_break(value)):
        return  # printable text is the common case, and holds no line break
    else:
        expected = "a string without line breaks"
    raise ModelError(f"{obj.id}.{adef.name} expects {expected}, got {value!r}")


def _reference_view(obj: DynamicObject):
    # many-references compare as sets; single references as plain ids
    return {
        name: frozenset(value) if isinstance(value, list) else value
        for name, value in obj.references.items()
    }


def model_equals(a: InstanceModel, b: InstanceModel) -> bool:
    """Order-independent structural equality.

    Same id set, and per id: same class, same attribute map (UNSET stays
    distinct from any set value), same reference targets.
    """
    if a.objects.keys() != b.objects.keys():
        return False
    for obj_id, oa in a.objects.items():
        ob = b.objects[obj_id]
        if oa.class_name != ob.class_name:
            return False
        if oa.attributes != ob.attributes:
            return False
        if _reference_view(oa) != _reference_view(ob):
            return False
    return True


def copy_model(model: InstanceModel) -> InstanceModel:
    """Deep-copy objects (shares the schema, which is immutable in use)."""
    out = InstanceModel(model.schema)
    for obj in model.objects.values():
        dup = DynamicObject(obj.id, obj.class_name, dict(obj.attributes), {})
        for name, value in obj.references.items():
            dup.references[name] = list(value) if isinstance(value, list) else value
        out.objects[dup.id] = dup
    return out
