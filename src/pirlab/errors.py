"""Exception hierarchy shared across the package.

ParameterError covers every rejected input (bad sizes, malformed specs);
UnsupportedSizeError marks inputs that are well formed but beyond the
implemented caps.  InfeasibleError marks tasks that are impossible for the
given scheme rather than malformed.  InternalConsistencyError marks a failed
self-check, that is a bug.  The command line maps ParameterError (and
subclasses) to exit code 2, InfeasibleError to exit code 3 and
InternalConsistencyError to exit code 4.  `json_int`, `json_pair` and
`malformed` turn a bad value in an input document into a ParameterError.
"""

from contextlib import contextmanager


class ParameterError(ValueError):
    """An input value is outside the supported domain."""


class UnsupportedSizeError(ParameterError):
    """The input is valid but larger than the implemented cap."""


class InfeasibleError(RuntimeError):
    """The requested construction does not exist for this input."""

    def __init__(self, message, server=None):
        super().__init__(message)
        self.server = server


class InternalConsistencyError(AssertionError):
    """A self-check inside a construction failed (indicates a bug)."""


def json_int(value, field):
    """`value` when it is an int; a bool, float or string is refused, so a
    document never has a number silently truncated."""
    if type(value) is not int:
        raise ParameterError(f"{field} must be an integer, got {value!r}")
    return value


def json_pair(pair):
    """A combo entry [file, sign] of a document, as a tuple of two ints."""
    f, sign = pair
    return json_int(f, "combo file"), json_int(sign, "combo sign")


@contextmanager
def malformed(kind):
    """Turn the AttributeError, KeyError, TypeError or ValueError of reading
    a document of the given kind (a list where an object belongs, say) into
    a ParameterError; ParameterErrors pass through."""
    try:
        yield
    except ParameterError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed {kind} document: {exc}") from None
