"""Dynamic schema layer and instance model.

Classes, attributes and references are declared in data (parsed from a
plain-text schema file) and queried at runtime, so one command
implementation can serve any schema variant.  Objects are attribute
maps; an attribute that was never set is UNSET, which is distinct from
empty string or zero and is represented as the absence of the key.

A model records which of its objects were written, so readers that
derive something per object (the editor's parse, the instance encoder)
redo only the changed ones.  Objects enter only through ``add`` and are
sealed; once a model tracks writes, their ``attributes`` and
``references`` are tracked mappings that mark them changed on every
write.  Replacing a many-reference list is a write; editing the list in
place is not.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import ModelError, SchemaError

if TYPE_CHECKING:
    from .codec import KeptBlocks

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
        if line and line.lstrip()[0] != "#":
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
    changed there on every write through its own methods.  The command
    runners and ``InstanceModel.set_attribute_text`` write through plain
    ``dict`` methods and mark the object once instead.

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
        if model is not None:  # objects never leave a model: the owner is there
            model.mark(model._objects[self.owner_id])
        return result

    tracked_write.__name__ = write.__name__
    return tracked_write


for _name in ("__setitem__", "__delitem__", "pop", "popitem", "setdefault", "update",
              "clear", "__ior__"):
    setattr(TrackedDict, _name, _marking(getattr(dict, _name)))


class DynamicObject:
    """A schema-conforming instance, sealed: the constructor sets its four
    fields and nothing rebinds or deletes them, so an object keeps the id
    and class its model checked.  Identity hashing lets editors key
    registries by the object; ``model_equals`` compares values.  The
    mappings are plain dicts until the object's model tracks writes (see
    ``InstanceModel.seen``), which makes them ``TrackedDict``s."""

    __slots__ = ("id", "class_name", "attributes", "references")

    def __init__(self, id, class_name, attributes=None, references=None):
        _set_id(self, id)
        _set_class_name(self, class_name)
        # name -> str | int (absent = UNSET) and name -> id | list[id]; another
        # object's tracked mapping is copied, or it would mark only one of them
        _set_attributes(self, {} if attributes is None else
                        attributes if type(attributes) is dict else dict(attributes))
        _set_references(self, {} if references is None else
                        references if type(references) is dict else dict(references))

    def _refuse(self, name, value=None):
        raise AttributeError(f"{self!r} is sealed: {name!r} cannot change")

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):
        return DynamicObject, (self.id, self.class_name, self.attributes, self.references)

    def __repr__(self):
        return f"DynamicObject({self.id!r}, {self.class_name!r})"


#: the slots' own setters, which only the constructor and binding use
_set_id = DynamicObject.id.__set__
_set_class_name = DynamicObject.class_name.__set__
_set_attributes = DynamicObject.attributes.__set__
_set_references = DynamicObject.references.__set__


class InstanceModel:
    """Objects keyed by id, governed by one schema.  Every check of an
    object against the schema lives here.  Objects enter only through
    ``add`` (``objects`` is a read-only view) and are sealed, so every
    write is ``add``, a setter or a write into an object's mappings.

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
    blocks: KeptBlocks | None = None
    _ref = None  # the weak reference bound mappings hold, made on first use

    def __init__(self, schema: MetaModel):
        self.schema = schema
        self._objects: dict[str, DynamicObject] = {}
        #: id -> object, read-only: only ``add`` writes it
        self.objects = MappingProxyType(self._objects)
        #: reader -> the objects marked since it last called ``seen`` (a
        #: dict as an ordered set); empty while the model tracks no writes
        self.readers: dict[str, dict[DynamicObject, None]] = {}

    def __getstate__(self):
        """A copy (``copy.deepcopy``) makes its own view and binds its own objects."""
        return {k: v for k, v in self.__dict__.items() if k not in ("objects", "_ref")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.objects = MappingProxyType(self._objects)
        if self.readers:
            self._bind_all()

    def __len__(self):
        return len(self._objects)

    def get(self, obj_id) -> DynamicObject | None:
        return self._objects.get(obj_id)

    def add(self, obj: DynamicObject) -> DynamicObject:
        """Add an object of a declared class.  The one check of an id (new,
        non-empty, no line break), as an object's id never changes."""
        if obj.class_name not in self.schema.classes:
            self.schema.cls(obj.class_name)  # raises the error
        obj_id = obj.id
        # printable ids need no split
        if not obj_id or not obj_id.isprintable() and has_line_break(obj_id):
            raise ModelError(f"object id must be non-empty and hold no line break, got {obj_id!r}")
        if obj_id in self._objects:
            raise ModelError(f"duplicate object id {obj_id!r}")
        self._objects[obj_id] = obj
        if self.readers:
            self._bind_all((obj,))
            self.mark(obj)
        return obj

    def new_object(self, class_name, obj_id) -> DynamicObject:
        """Create an object with all attributes UNSET and add it."""
        return self.add(DynamicObject(obj_id, class_name))

    def _bind_all(self, objects=None):
        """Give every object (or each of ``objects``) tracked mappings
        bound here: the one rebinding of an object's fields.  The
        references of a class that declares none stay as they are: no
        reader reads an undeclared feature."""
        ref = self._ref
        if ref is None:
            ref = self._ref = weakref.ref(self)
        classes = self.schema.classes
        for obj in self._objects.values() if objects is None else objects:
            attributes = obj.attributes
            if type(attributes) is not TrackedDict:
                attributes = TrackedDict(attributes)
                _set_attributes(obj, attributes)
            attributes.model_ref = ref
            attributes.owner_id = obj.id
            cls = classes.get(obj.class_name)
            if cls is not None and not cls.references:
                continue
            references = obj.references
            if type(references) is not TrackedDict:
                references = TrackedDict(references)
                _set_references(obj, references)
            references.model_ref = ref
            references.owner_id = obj.id

    def mark_all(self):
        """Mark every object changed."""
        for unseen in self.readers.values():
            unseen.update(dict.fromkeys(self._objects.values()))

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
        if self.readers:  # past the tracked mapping's own marking, marked once
            dict.__setitem__(obj.attributes, name, value)
            for unseen in self.readers.values():  # ``mark``, inline: the hot path
                unseen[obj] = None
        else:
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
        _check_target(obj, cls.references.get(name) or cls.reference(name), target_id,
                      self._objects.get(target_id))

    def validate(self, schema: MetaModel | None = None):
        """Check every object's features, values and targets against
        ``schema``, by default the model's own.  Ids need no check here:
        ``add`` checked each, and an object's id cannot change."""
        schema = schema or self.schema
        classes = schema.classes
        for obj in self._objects.values():
            # a plain lookup first: the method call is only for its error
            cls = classes.get(obj.class_name) or schema.cls(obj.class_name)
            attributes = cls.attributes
            for name, value in obj.attributes.items():
                _check_value(obj, attributes.get(name) or cls.attribute(name), value)
            self.check_targets(obj, cls)

    def check_targets(self, obj: DynamicObject, cls: MetaClass):
        """Check every target of ``obj`` against the references of ``cls``."""
        references, objects = cls.references, self._objects
        for name, value in obj.references.items():
            rdef = references.get(name) or cls.reference(name)
            for target_id in value if rdef.many else (value,):
                _check_target(obj, rdef, target_id, objects.get(target_id))


def _check_target(obj: DynamicObject, rdef: ReferenceDef, target_id, target):
    """The one check of a reference target: it exists, of the declared class."""
    if target is None:
        raise ModelError(f"{obj.id}.{rdef.name}: unknown target {target_id!r} (it does not exist)")
    if target.class_name != rdef.target:
        raise ModelError(
            f"{obj.id}.{rdef.name}: target {target_id!r} is a {target.class_name}, "
            f"expected {rdef.target}"
        )


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
    for obj in model._objects.values():
        dup = DynamicObject(obj.id, obj.class_name, dict(obj.attributes), {})
        for name, value in obj.references.items():
            dup.references[name] = list(value) if isinstance(value, list) else value
        out._objects[dup.id] = dup
    return out
