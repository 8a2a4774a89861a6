"""Exact-value rendering helpers: decimals, fractions, JSON metadata."""

import hashlib
import json
from fractions import Fraction


# decimal places of every fixed-point value pirlab prints
PLACES = 5


def decimal_str(value):
    """Render an exact rational as a fixed-point decimal string.

    Rounding is banker's rounding (round half to even) at PLACES decimal
    places, computed from the exact fraction so values like
    84/305 print as 0.27541 rather than a truncated 0.27540.
    """
    frac = Fraction(value)
    # one rounding, of the exact fraction; a Fraction rounds half to even
    units, rest = divmod(round(abs(frac) * 10 ** PLACES), 10 ** PLACES)
    sign = "-" if frac < 0 else ""
    return f"{sign}{units}.{rest:0{PLACES}d}"


def frac_str(value):
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def _dumps(obj, **options):
    """json.dumps(obj, **options) without the circular-reference scan.

    A cycle then recurses until RecursionError, as does nesting past the
    recursion limit; either way the checked encoder runs again and raises
    what json.dumps raises: ValueError("Circular reference detected") for
    a cycle, RecursionError for deep nesting.
    """
    try:
        return json.dumps(obj, check_circular=False, **options)
    except RecursionError:
        return json.dumps(obj, **options)


def canonical_json(obj):
    """Compact JSON text of `obj`, for byte-reproducible output.

    Keys keep their insertion order and non-ASCII text is escaped, so the
    same document always gives the same bytes.  The encoder skips its
    circular-reference scan, about a third of the encoding time: pirlab
    documents are trees.  A cycle is still reported as json.dumps reports
    it, by re-encoding with the scan on (`_dumps`).
    """
    return _dumps(obj, separators=(",", ":"))


def input_digest(obj):
    """Hex digest identifying the resolved inputs of a CLI invocation."""
    blob = _dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def meta_header(command, inputs, seed=None):
    from . import __version__

    return {
        "tool": "pirlab",
        "version": __version__,
        "input_sha256": input_digest({"command": command, "inputs": inputs}),
        "seed": seed,
    }
