"""Dynamic schema layer and instance model.

Classes, attributes and references are declared in data (parsed from a
plain-text schema file) and queried at runtime, so one command
implementation can serve any schema variant.  An object in a model holds
one tuple of values in its class's feature order (``MetaClass.slots``),
as EMF's dynamic objects hold one array indexed by feature id; a feature
never set is UNSET, held as None: distinct from empty string, zero and
an empty many-reference.

Every write goes through the model that holds the object: ``add``, the
setters (``set_attribute``, ``set_attribute_text``, ``set_reference``,
which ``sync.apply_mutations`` uses) and the editors' commands.  Objects
are sealed, their ``attributes`` and ``references`` are read-only views
and a many-reference is a tuple, so no write goes past the model.  Each
write checks what it writes, so a model is valid against its own schema
at all times: ``Editor.adopt_model`` validates a model only when it comes
from another schema.

A model records which of its objects were written, so readers that
derive something per object (the editor's parse, the instance encoder)
redo only the changed ones.
"""

from __future__ import annotations

import itertools
import linecache
import weakref
from dataclasses import dataclass
from collections.abc import Mapping
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


#: the most decimal digits an int may have: an attribute value, a
#: command's age or a reference year.  A conversion (``reference_year -
#: age`` in a runner, ``reference_year - ybirth`` in a parse) that would
#: have more is refused where it is worked out.  Every process turns ints
#: of that many digits into text and back: fewer than 640, the lowest
#: limit ``sys.set_int_max_str_digits`` can set
INT_DIGITS = 600
_INT_BOUND = 10**INT_DIGITS


def int_in_bound(value) -> bool:
    """Whether the int ``value`` has at most ``INT_DIGITS`` digits."""
    return -_INT_BOUND < value < _INT_BOUND


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


def _check_name(name, what):
    """A schema name is one token: the instance file writes it as one, so
    whitespace in it would start fields or lines of its own."""
    if name.split() != [name]:
        raise SchemaError(f"{what} must be one token without whitespace, got {name!r}")


class MetaClass:
    """A declared class: named attribute and reference slots, and the
    layout of its objects' values: its attributes, then its references,
    each in declaration order.

    Attribute and reference names share one namespace within the class;
    the instance file grammar needs the first token of a line to identify
    the feature unambiguously.
    """

    def __init__(self, name, attributes=(), references=()):
        self.name = name
        self.attributes: dict[str, AttributeDef] = {}
        self.references: dict[str, ReferenceDef] = {}
        #: every feature in layout order, and name -> its position (``add`` sets both)
        self.features, self.slots = (), {}
        for feature in (*attributes, *references):
            self.add(feature)

    def add(self, feature: AttributeDef | ReferenceDef):
        """Declare one attribute or reference; a name starting ``#`` would read as a comment."""
        if feature.name in self.attributes or feature.name in self.references:
            raise SchemaError(f"duplicate feature {feature.name!r} in class {self.name}")
        _check_name(feature.name, f"a feature name of class {self.name}")
        if feature.name.startswith("#"):
            raise SchemaError(f"feature {feature.name!r} of class {self.name} may not start with '#'")
        if isinstance(feature, ReferenceDef):
            self.references[feature.name] = feature
        elif feature.kind in _KINDS:
            self.attributes[feature.name] = feature
        else:
            raise SchemaError(
                f"unknown attribute kind {feature.kind!r} on {self.name}.{feature.name} "
                f"(use string or int)"
            )
        self.features = (*self.attributes.values(), *self.references.values())
        self.slots = {f.name: k for k, f in enumerate(self.features)}

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
        _check_name(cls.name, "a class name")
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
    line loses its trailing whitespace.  Lines are numbered from 1."""
    for lineno, raw in enumerate(text.splitlines(), 1):
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
    """A schema-conforming instance, sealed: ``_object`` builds it whole
    and nothing rebinds or deletes its fields, so an object keeps the id
    and class its model checked.  Its values are one exact tuple, which
    only its model replaces, laid out by its class (``_layout``); a free
    object, until ``InstanceModel.add`` lays it out, holds its attribute
    and reference dicts instead, and no layout.  ``attributes`` and
    ``references`` are read-only views.  Identity hashing lets editors key
    registries by the object; ``model_equals`` compares values."""

    __slots__ = ("id", "class_name", "_values", "_layout", "_model")

    def __new__(cls, id, class_name, attributes=None, references=None):
        # name -> str | int and name -> id | tuple of ids, copied: no
        # caller keeps a mapping it could write past the model
        return _object(id, class_name, (dict(attributes) if attributes else {}, {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in references.items()
        } if references else {}), None)

    @property
    def attributes(self) -> FeatureView:
        return FeatureView(self, False)

    @property
    def references(self) -> FeatureView:
        return FeatureView(self, True)

    def _refuse(self, name, value=None):
        raise AttributeError(f"{self!r} is sealed: {name!r} cannot change")

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):
        """A copy belongs to no model until one adds it or copies it along."""
        return DynamicObject, (self.id, self.class_name, _set(self, False), _set(self, True))

    def __repr__(self):
        return f"DynamicObject({self.id!r}, {self.class_name!r})"


class _Open:
    """A ``DynamicObject`` under construction: its slots, without the seal."""

    __slots__ = DynamicObject.__slots__


#: the setters of the slots a model writes once an object is built, which
#: only ``_lay_out`` and the writers of a model's objects use
_set_values, _set_layout, _set_model = (
    getattr(DynamicObject, slot).__set__ for slot in DynamicObject.__slots__[2:])


def _object(obj_id, class_name, values, layout, model=None) -> DynamicObject:
    """A new object of ``model`` (a model's ``_ref``), or of none: the one
    place objects are built.  ``values`` is a tuple laid out by ``layout``,
    or a free object's (attributes, references) dicts with no layout.  The
    fields are stored on an unsealed object, which then becomes a sealed
    one: plain stores, not a slot setter's call per field."""
    obj = _Open()
    obj.id = obj_id
    obj.class_name = class_name
    obj._values = values
    obj._layout = layout
    obj._model = model
    obj.__class__ = DynamicObject
    return obj


def _set(obj: DynamicObject, references) -> dict:
    """Name -> value of each set attribute of ``obj``, or each set reference."""
    layout, values = obj._layout, obj._values
    if layout is None:  # a free object reads its own dicts
        return values[references]
    return {feature.name: value for feature, value in zip(layout.features, values)
            if value is not None and isinstance(feature, ReferenceDef) is references}


class FeatureView(Mapping):
    """The set attributes or references of an object, read-only and live:
    each read goes through the object's current values and layout."""

    __slots__ = ("_obj", "_references")

    def __init__(self, obj: DynamicObject, references: bool):
        self._obj, self._references = obj, references

    def __getitem__(self, name):
        return _set(self._obj, self._references)[name]

    def __iter__(self):
        return iter(_set(self._obj, self._references))

    def __len__(self):
        return len(_set(self._obj, self._references))

    def __repr__(self):
        return repr(_set(self._obj, self._references))


def _values_in(obj: DynamicObject, cls: MetaClass) -> tuple:
    """The values of ``obj`` laid out by ``cls``, which must declare each feature ``obj`` sets, of its kind."""
    if obj._layout is cls:
        return obj._values
    values = [None] * len(cls.slots)
    for references, lookup in ((False, cls.attribute), (True, cls.reference)):
        for name, value in _set(obj, references).items():
            lookup(name)  # refuses an undeclared name
            values[cls.slots[name]] = value
    return tuple(values)


def _lay_out(obj: DynamicObject, cls: MetaClass, values=None):
    """Lay ``obj`` out by ``cls``, with ``values`` or its own."""
    _set_values(obj, _values_in(obj, cls) if values is None else values)
    _set_layout(obj, cls)


#: the numbers of kernel file names whose label another kernel holds
_serials = itertools.count(2)


def compile_kernel(label, source, namespace=None) -> dict:
    """Run generated ``source`` in ``namespace`` plus ``_object`` (it builds
    an object owned by the model whose ``_ref`` it is given) and ``_set_values``,
    which it returns, as the file ``<evmigrate kernel label>``, or ``<evmigrate
    kernel label #n>`` with a new ``n`` while another source holds that name (a
    fresh import of this module starts its count again, so a number may be
    taken too).  The source is registered with ``linecache`` (tracebacks show
    generated lines) until the kernel's functions are freed."""
    namespace = {"_object": _object, "_set_values": _set_values, **(namespace or {})}
    filename = f"<evmigrate kernel {label}>"
    while filename in linecache.cache:
        filename = f"<evmigrate kernel {label} #{next(_serials)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    # The generated functions and their namespace refer to each other, so
    # the cyclic collector frees them together.  The finalizer holds
    # nothing of this module, which a fresh import can then free at once.
    kernel = next(f for f in namespace.values() if getattr(f, "__globals__", None) is namespace)
    weakref.finalize(kernel, linecache.cache.pop, filename, None)
    return namespace


class InstanceModel:
    """Objects keyed by id, governed by one schema.  Every check of an
    object against the schema lives here.  Objects enter only through
    ``add`` (``objects`` is a read-only view) and are sealed, and their
    views are read-only, so every write is ``add`` or a setter, and
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

    #: the instance-file text, if ``codec``'s fast reader read all of it:
    #: one text per chunk of objects, and each object's block length;
    #: ``codec.encode_model`` splices each edit into it
    blocks: KeptBlocks | None = None
    #: the objects ``add`` took in since an editor adopted the model, to be
    #: registered under ids it mints (a dict as an ordered set); else None
    added: dict[DynamicObject, None] | None = None

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
        classes = self.schema.classes
        for obj in self._objects.values():
            _set_model(obj, ref)
            _lay_out(obj, classes[obj.class_name])

    def __len__(self):
        return len(self._objects)

    def get(self, obj_id) -> DynamicObject | None:
        return self._objects.get(obj_id)

    def add(self, obj: DynamicObject) -> DynamicObject:
        """Add an object that no model holds, checked as ``validate``
        checks it, and its id once (an object's id never changes): a
        declared class, an id that is new and one token (so no line
        break), declared features, values of their kind and targets in
        the model (the object itself included), each reference then
        holding its target's own id string.  It lays the object out by its
        class.  A model an editor holds records the object in ``added``."""
        cls = self.schema.classes.get(obj.class_name) or self.schema.cls(obj.class_name)
        obj_id, objects = obj.id, self._objects
        if obj_id.split() != [obj_id]:  # whitespace includes every line break
            raise ModelError(f"object id must be one token, non-empty and hold no line break or other "
                             f"whitespace, got {obj_id!r}")
        if obj._model is not None and obj._model() is not None:
            raise ModelError(f"object {obj_id!r} already belongs to a model")
        if obj_id in objects:
            raise ModelError(f"duplicate object id {obj_id!r}")
        objects[obj_id] = obj  # it may be its own target
        try:
            values = tuple(  # linked as ``set_reference`` links it
                value if value is None or type(feature) is AttributeDef
                else tuple(objects[t].id for t in value) if feature.many else objects[value].id
                for feature, value in zip(cls.features, self._check(obj, cls)))
        finally:
            del objects[obj_id]
        _lay_out(obj, cls, values)
        _set_model(obj, self._ref)
        if self.added is not None:
            self.added[obj] = None
        return self._admit(obj)

    def new_object(self, class_name, obj_id) -> DynamicObject:
        """Create an object with all attributes UNSET and add it."""
        return self.add(_object(obj_id, class_name, ({}, {}), None))

    def _admit(self, obj: DynamicObject) -> DynamicObject:
        """Insert and mark an object valid by construction and owned (``add``
        checked and owned it, or a runner built it from a command) if its id is new."""
        assert obj._model is self._ref, f"{obj!r} must be built owned: _object(..., model._ref)"
        if obj.id in self._objects:
            raise ModelError(f"duplicate object id {obj.id!r}")
        self._objects[obj.id] = obj
        for unseen in self.readers.values():  # ``mark``, inline: the hot path
            unseen[obj] = None
        return obj

    def _owned(self, obj: DynamicObject) -> MetaClass:
        """The class of ``obj``, which must belong to this model: a setter
        of another model would write it unseen by its own."""
        if obj._model is not self._ref:
            raise ModelError(f"object {obj.id!r} does not belong to this model")
        return obj._layout

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
        cls = self._owned(obj)
        _check_value(obj, cls.attribute(name), value)
        values = list(obj._values)  # the new tuple, built from a list: faster than slicing
        values[cls.slots[name]] = value
        _set_values(obj, tuple(values))
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
        values = list(obj._values)
        values[cls.slots[name]] = value
        _set_values(obj, tuple(values))
        for unseen in self.readers.values():  # ``mark``, inline: the hot path
            unseen[obj] = None

    def set_reference(self, obj: DynamicObject, name, target_id):
        """Assign (one) or add-if-absent (many) a target, which must be in
        the model and of the declared class; the reference holds the
        target's own id string."""
        rdef = self._owned(obj).reference(name)
        target = self._objects.get(target_id)
        _check_target(obj, rdef, target_id, target)
        self._link(obj, rdef, target.id)

    def _link(self, obj: DynamicObject, rdef: ReferenceDef, target_id):
        """``set_reference`` with the target left unchecked, for writers
        that made it themselves (the command runners)."""
        values, k = list(obj._values), obj._layout.slots[rdef.name]
        if rdef.many:
            targets = values[k] or ()
            if target_id in targets:
                return
            target_id = (*targets, target_id)
        values[k] = target_id
        _set_values(obj, tuple(values))
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

    def _check(self, obj: DynamicObject, cls: MetaClass) -> tuple:
        """Check the values of ``obj`` laid out by ``cls`` and their targets; return the values."""
        values, objects = _values_in(obj, cls), self._objects
        for feature, value in zip(cls.features, values):
            if value is None:
                continue
            if type(feature) is AttributeDef:
                _check_value(obj, feature, value)
                continue
            if feature.many is not (type(value) is tuple) or feature.many and len(set(value)) < len(value):
                raise ModelError(f"{obj.id}.{feature.name} expects "
                                 f"{'a tuple of distinct ids' if feature.many else 'one id'}, got {value!r}")
            for target_id in value if feature.many else (value,):
                _check_target(obj, feature, target_id, objects.get(target_id))
        return values


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
            if int_in_bound(value):
                return
            raise ModelError(f"{obj.id}.{adef.name} expects an integer of at most {INT_DIGITS} digits")
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
        for name, value in _set(obj, True).items()
    }


def model_equals(a: InstanceModel, b: InstanceModel) -> bool:
    """Order-independent structural equality.

    Same id set, and per id: same class, same attribute map (UNSET stays
    distinct from any set value), same reference targets.  Objects laid
    out alike with equal values are equal; any others are compared by name.
    """
    if a.objects.keys() != b.objects.keys():
        return False
    for obj_id, oa in a.objects.items():
        ob = b.objects[obj_id]
        if oa._layout is ob._layout and oa._values == ob._values:
            continue
        if (oa.class_name != ob.class_name or _set(oa, False) != _set(ob, False)
                or _reference_view(oa) != _reference_view(ob)):
            return False
    return True


def copy_model(model: InstanceModel) -> InstanceModel:
    """Copy the objects, which share their values: a tuple of atoms (and
    the schema, which is immutable in use)."""
    out = InstanceModel(model.schema)
    objects, ref = out._objects, out._ref
    for obj_id, obj in model._objects.items():  # a valid model: nothing to check
        objects[obj_id] = _object(obj_id, obj.class_name, obj._values, obj._layout, ref)
    return out
