"""Event-sourced bidirectional model migration.

Two editors with schema-specific models share one command vocabulary;
command logs are exchanged as text and replayed, so edits migrate both
ways without losing data a target schema cannot represent.
"""

from .codec import (
    CommandLogDocument,
    decode_log,
    decode_model,
    encode_log,
    encode_model,
)
from .commands import (
    Command,
    DEFAULT_REFERENCE_YEAR,
    HAVE_DOG,
    HAVE_PERSON,
    have_dog,
    have_person,
)
from .editor import Editor, EventStore
from .errors import (
    FormatError,
    MergeError,
    MigrationError,
    ModelError,
    SchemaError,
)
from .metamodel import (
    AttributeDef,
    DynamicObject,
    InstanceModel,
    MetaClass,
    MetaModel,
    ReferenceDef,
    copy_model,
    load_schema,
    model_equals,
)
from .sync import (
    SCENARIOS,
    MigrationSession,
    Scenario,
    apply_mutations,
    migrate_backward,
    migrate_forward,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeDef",
    "Command",
    "CommandLogDocument",
    "DEFAULT_REFERENCE_YEAR",
    "DynamicObject",
    "Editor",
    "EventStore",
    "FormatError",
    "HAVE_DOG",
    "HAVE_PERSON",
    "InstanceModel",
    "MergeError",
    "MetaClass",
    "MetaModel",
    "MigrationError",
    "MigrationSession",
    "ModelError",
    "ReferenceDef",
    "SCENARIOS",
    "Scenario",
    "SchemaError",
    "apply_mutations",
    "copy_model",
    "decode_log",
    "decode_model",
    "encode_log",
    "encode_model",
    "have_dog",
    "have_person",
    "load_schema",
    "migrate_backward",
    "migrate_forward",
    "model_equals",
]
