"""Dynamic schema layer and instance model.

Classes, attributes and references are declared in data (parsed from a
plain-text schema file) and queried at runtime, so one command
implementation can serve any schema variant.  Objects are attribute
maps; an attribute that was never set is UNSET, which is distinct from
empty string or zero and is represented as the absence of the key.

Every write goes through the model that holds the object: ``add``, the
setters (``set_attribute``, ``set_attribute_text``, ``set_reference``,
which ``sync.apply_mutations`` uses) and the editors' commands.  Objects
are sealed, their ``attributes`` and ``references`` are read-only
mappings and a many-reference is a tuple, so no write goes past the
model.  Each write checks what it writes, so a model is valid against
its own schema at all times: ``Editor.adopt_model`` validates a model
only when it comes from another schema.

A model records which of its objects were written, so readers that
derive something per object (the editor's parse, the instance encoder)
redo only the changed ones.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import ModelError, SchemaError

if TYPE_CHECKING:
    from array import array

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


class DynamicObject:
    """A schema-conforming instance, sealed: the constructor sets its
    fields and nothing rebinds or deletes them, so an object keeps the id
    and class its model checked.  ``attributes`` and ``references`` are
    read-only views of the object's own plain dicts; only its model writes
    them.  Identity hashing lets editors key registries by the object;
    ``model_equals`` compares values."""

    __slots__ = ("id", "class_name", "_attributes", "_references", "_model")

    def __init__(self, id, class_name, attributes=None, references=None):
        # name -> str | int (absent = UNSET) and name -> id | tuple of ids,
        # copied: no caller keeps a mapping it could write past the model
        _object(id, class_name, dict(attributes) if attributes else {}, {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in references.items()
        } if references else {}, self)

    @property
    def attributes(self) -> MappingProxyType:
        return MappingProxyType(self._attributes)

    @property
    def references(self) -> MappingProxyType:
        return MappingProxyType(self._references)

    def _refuse(self, name, value=None):
        raise AttributeError(f"{self!r} is sealed: {name!r} cannot change")

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):
        """A copy belongs to no model until one adds it or copies it along."""
        return DynamicObject, (self.id, self.class_name, self._attributes, self._references)

    def __repr__(self):
        return f"DynamicObject({self.id!r}, {self.class_name!r})"


#: the slots' own setters, which only ``_object`` and ``InstanceModel`` use
_set_id, _set_class_name, _set_attributes, _set_references, _set_model = (
    getattr(DynamicObject, slot).__set__ for slot in DynamicObject.__slots__)


def _object(obj_id, class_name, attributes, references, obj=None) -> DynamicObject:
    """Set the fields of ``obj``, a new object by default, which takes
    both dicts as they are: the one place fields are set.  The constructor
    copies them first; the decoders and ``copy_model`` build them and keep
    no other reference."""
    obj = object.__new__(DynamicObject) if obj is None else obj
    _set_id(obj, obj_id)
    _set_class_name(obj, class_name)
    _set_attributes(obj, attributes)
    _set_references(obj, references)
    _set_model(obj, None)
    return obj


class InstanceModel:
    """Objects keyed by id, governed by one schema.  Every check of an
    object against the schema lives here.  Objects enter only through
    ``add`` (``objects`` is a read-only view) and are sealed, and their
    mappings are read-only, so every write is ``add`` or a setter, and
    each checks what it writes: a model is valid against its own schema
    at all times.  An object belongs to the one model that added it.

    The model also records which objects changed, per reader: a reader
    (a name, say ``"parse"``) takes ``unseen(reader)``, the objects marked
    since it last called ``seen(reader)``, so each reader keeps its own
    place.  An object is marked when it is added, when a setter writes
    it, and when ``mark_all`` marks every object; a reader that never
    called ``seen`` gets None, meaning every object.  Marks are kept only
    once some reader has called ``seen``; each reader decides when
    tracking pays."""

    #: instance-file text per object, kept by ``codec.encode_model``
    blocks: KeptBlocks | None = None
    #: the text a canonical decode read the model from, and the offsets
    #: at which each object's block of it starts, then where the last
    #: ends, until ``codec.keep_blocks`` takes it
    source: tuple[str, array] | None = None

    def __init__(self, schema: MetaModel):
        self.schema = schema
        self._objects: dict[str, DynamicObject] = {}
        #: id -> object, read-only: only ``add`` writes it
        self.objects = MappingProxyType(self._objects)
        #: reader -> the objects marked since it last called ``seen`` (a
        #: dict as an ordered set); empty while the model tracks no writes
        self.readers: dict[str, dict[DynamicObject, None]] = {}
        #: what each object holds of the model that added it: a weak
        #: reference, so an object makes no reference cycle
        self._ref = weakref.ref(self)

    def __getstate__(self):
        """A copy (``copy.deepcopy``, pickle) makes its own view and holds its own objects."""
        return {k: v for k, v in self.__dict__.items() if k not in ("objects", "_ref")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.objects = MappingProxyType(self._objects)
        self._ref = ref = weakref.ref(self)
        for obj in self._objects.values():
            _set_model(obj, ref)

    def __len__(self):
        return len(self._objects)

    def get(self, obj_id) -> DynamicObject | None:
        return self._objects.get(obj_id)

    def add(self, obj: DynamicObject) -> DynamicObject:
        """Add an object that no model holds, checked as ``validate``
        checks it, and its id once (an object's id never changes): a
        declared class, an id that is new, non-empty and without line
        breaks, declared features, values of their kind and targets in
        the model (the object itself included)."""
        cls = self.schema.classes.get(obj.class_name) or self.schema.cls(obj.class_name)
        obj_id, objects = obj.id, self._objects
        # printable ids need no split
        if not obj_id or not obj_id.isprintable() and has_line_break(obj_id):
            raise ModelError(f"object id must be non-empty and hold no line break, got {obj_id!r}")
        if obj._model is not None and obj._model() is not None:
            raise ModelError(f"object {obj_id!r} already belongs to a model")
        if obj_id in objects:
            raise ModelError(f"duplicate object id {obj_id!r}")
        objects[obj_id] = obj  # it may be its own target
        if obj._attributes or obj._references:
            try:
                self._check(obj, cls)
            except ModelError:
                del objects[obj_id]
                raise
        _set_model(obj, self._ref)
        for unseen in self.readers.values():  # ``mark``, inline: the hot path
            unseen[obj] = None
        return obj

    def new_object(self, class_name, obj_id) -> DynamicObject:
        """Create an object with all attributes UNSET and add it."""
        return self.add(_object(obj_id, class_name, {}, {}))

    def _owned(self, obj: DynamicObject) -> MetaClass:
        """The class of ``obj``, which must belong to this model: a setter
        of another model would write it unseen by its own."""
        if obj._model is not self._ref:
            raise ModelError(f"object {obj.id!r} does not belong to this model")
        return self.schema.classes[obj.class_name]

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
        self.readers[reader] = {}

    def set_attribute(self, obj: DynamicObject, name, value):
        _check_value(obj, self._owned(obj).attribute(name), value)
        obj._attributes[name] = value
        self.mark(obj)

    def set_attribute_text(self, obj: DynamicObject, name, text):
        """Set attribute ``name`` of ``obj`` from its text form: an int
        attribute takes ``text`` as a base-10 integer."""
        cls = self._owned(obj)
        adef = cls.attributes.get(name) or cls.attribute(name)
        value = text
        if adef.kind == KIND_INT:
            try:
                value = int(text, 10)
            except ValueError:
                pass  # the check below names the expected kind
        _check_value(obj, adef, value)
        obj._attributes[name] = value
        for unseen in self.readers.values():  # ``mark``, inline: the hot path
            unseen[obj] = None

    def set_reference(self, obj: DynamicObject, name, target_id):
        """Assign (one) or add-if-absent (many) a target, which must be in
        the model and of the declared class."""
        rdef = self._owned(obj).reference(name)
        _check_target(obj, rdef, target_id, self._objects.get(target_id))
        self._link(obj, rdef, target_id)

    def _link(self, obj: DynamicObject, rdef: ReferenceDef, target_id):
        """``set_reference`` with the target left unchecked, for writers
        that check every target once all objects are in (the decoders)
        or that made it themselves (the command runners)."""
        references = obj._references
        if rdef.many:
            targets = references.get(rdef.name, ())
            if target_id in targets:
                return
            target_id = (*targets, target_id)
        references[rdef.name] = target_id
        self.mark(obj)

    def validate(self, schema: MetaModel | None = None):
        """Check every object's features, values and targets against
        ``schema``, by default the model's own (which every write already
        kept it valid against).  Ids need no check here: ``add`` checked
        each, and an object's id cannot change."""
        schema = schema or self.schema
        classes = schema.classes
        for obj in self._objects.values():
            # a plain lookup first: the method call is only for its error
            self._check(obj, classes.get(obj.class_name) or schema.cls(obj.class_name))

    def _check(self, obj: DynamicObject, cls: MetaClass):
        """Check the values and targets of ``obj`` against ``cls``."""
        attributes = cls.attributes
        for name, value in obj._attributes.items():
            _check_value(obj, attributes.get(name) or cls.attribute(name), value)
        self.check_targets(obj, cls)

    def check_targets(self, obj: DynamicObject, cls: MetaClass):
        """Check every target of ``obj`` against the references of ``cls``."""
        references, objects = cls.references, self._objects
        for name, value in obj._references.items():
            rdef = references.get(name) or cls.reference(name)
            if rdef.many is not (type(value) is tuple) or rdef.many and len(set(value)) < len(value):
                raise ModelError(f"{obj.id}.{name} expects "
                                 f"{'a tuple of distinct ids' if rdef.many else 'one id'}, got {value!r}")
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
        name: frozenset(value) if type(value) is tuple else value
        for name, value in obj._references.items()
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
        if oa._attributes != ob._attributes:
            return False
        if _reference_view(oa) != _reference_view(ob):
            return False
    return True


def copy_model(model: InstanceModel) -> InstanceModel:
    """Deep-copy objects (shares the schema, which is immutable in use)."""
    out = InstanceModel(model.schema)
    objects, ref = out._objects, out._ref
    for obj_id, obj in model._objects.items():  # a valid model: nothing to check
        dup = objects[obj_id] = _object(obj_id, obj.class_name, obj._attributes.copy(),
                                        obj._references.copy())  # tuples of ids are shared
        _set_model(dup, ref)
    return out
