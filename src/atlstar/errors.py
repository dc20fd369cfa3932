"""The error hierarchy that decides the command line's exit codes.

Every error the program raises for a problem of the run is an
:class:`InputError` (exit 2) or a :class:`ResourceError` (exit 3).  Any
other exception is a fault of the program (exit 4).
"""


class AtlstarError(Exception):
    """A problem of the run, not a fault of the program."""


class InputError(AtlstarError):
    """Malformed input, or input no route of the tool can handle."""


class ResourceError(AtlstarError):
    """A size cap or budget was exceeded."""
