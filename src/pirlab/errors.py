"""Exception hierarchy shared across the package.

ParameterError covers every rejected input (bad sizes, malformed specs);
UnsupportedSizeError marks inputs that are well formed but beyond the
implemented caps.  InfeasibleError marks tasks that are impossible for the
given scheme rather than malformed.  InternalConsistencyError marks a failed
self-check, that is a bug.  The command line maps ParameterError (and
subclasses) to exit code 2, InfeasibleError to exit code 3 and
InternalConsistencyError to exit code 4.  Constructors check their fields
with `check_int` and `check_combo`; a `from_json` only maps JSON to fields,
with `server_key` and `check_frac`, inside `malformed`.
Every entry point that takes a parameter checks it with its rule's one
check: `check_theta`, `check_q`, `check_replication`, `sequences.check_n`.
"""

import re
from contextlib import contextmanager
from fractions import Fraction


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


def check_int(value, field):
    """`value` when it is an int; a bool, float or string is refused, so a
    number is never silently truncated."""
    if type(value) is not int:
        raise ParameterError(f"{field} must be an integer, got {value!r}")
    return value


def check_theta(theta, graph):
    """Refuse a desired file that is not one of `graph`'s file ids."""
    m = len(graph.edges)
    if not 0 <= check_int(theta, "theta") < m:
        raise ParameterError(f"theta {theta} is not a file id (0..{m - 1})")


def check_q(q):
    """Refuse an alphabet size below 2, where no retrieval can fail."""
    if check_int(q, "q") < 2:
        raise ParameterError(f"alphabet size q must be an integer >= 2, "
                             f"got {q}")


def check_replication(r):
    """Refuse a replication factor below 1."""
    if check_int(r, "replication factor") < 1:
        raise ParameterError(f"replication factor must be >= 1, got {r}")


def check_frac(value, field):
    """`value` as a Fraction when it is an int or a string like "7/20" with
    a nonzero denominator, as JSON gives it.  A float, bool or decimal
    string is refused: it is not an exact value."""
    if type(value) is int or type(value) is str and re.fullmatch(
            r"-?[0-9]+(/0*[1-9][0-9]*)?", value):
        return Fraction(value)
    raise ParameterError(f"{field} must be a fraction string or an integer, "
                         f"got {value!r}")


def check_combo(combo, server):
    """A query combo [(file, sign), ...] for `server` as a tuple of int
    pairs with signs +1 or -1."""
    combo = tuple((check_int(f, "combo file"), check_int(sign, "combo sign"))
                  for f, sign in combo)
    for pair in combo:
        if pair[1] not in (1, -1):
            raise ParameterError(f"bad sign in combo entry {list(pair)} for "
                                 f"server {server}")
    return combo


def server_key(key):
    """A document's server key as an int.  Only the plain decimal form is
    read ("1", never "01"), so no second spelling replaces the first."""
    if key.isdecimal() and str(int(key)) == key:
        return int(key)
    raise ParameterError(f"server key {key!r} is not a plain decimal")


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
