"""Shared exception types."""


class ConfigurationError(ValueError):
    """Raised when a caller supplies parameters the engine cannot run with."""


class InvalidStateError(RuntimeError):
    """Raised when internal bookkeeping reaches a state that should be impossible."""


class InstanceFormatError(ValueError):
    """Raised for a malformed instance, by the parser or by ``ClusteredGraph``.

    The message starts with the offending line number when there is one: the
    parser gives it, a graph built by hand has no lines.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
