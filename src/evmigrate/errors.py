"""Exception types shared across the package."""


class MigrationError(Exception):
    """Base class for all domain errors raised by this package.

    A parser passes the ``line`` of the input it was reading; the message
    then starts with ``line N: ``."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(MigrationError):
    """Invalid schema text or a query against an unknown class/feature."""


class ModelError(MigrationError):
    """Instance-level violation: undeclared feature, kind mismatch, bad id."""


class FormatError(MigrationError):
    """Malformed serialized document (command log, instance file, mutation script)."""


class MergeError(MigrationError):
    """A command failed while merging an incoming log; carries the command."""

    def __init__(self, message, command=None):
        super().__init__(message)
        self.command = command
