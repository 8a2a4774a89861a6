"""Exact-value rendering helpers: decimals, fractions, JSON metadata."""

import decimal
import functools
import hashlib
import json
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _str

from .errors import ParameterError

DEFAULT_PRECISION = 5
PRECISION_ENV = "PIRLAB_PRECISION"


def precision():
    """Decimal places used for table output; overridable via PIRLAB_PRECISION."""
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return DEFAULT_PRECISION
    try:
        places = int(raw)
    except ValueError:
        raise ParameterError(f"{PRECISION_ENV} must be an integer, got {raw!r}")
    if not 1 <= places <= 50:
        raise ParameterError(f"{PRECISION_ENV} must be in 1..50, got {places}")
    return places


def decimal_str(value, places=None):
    """Render an exact rational as a fixed-point decimal string.

    Rounding is banker's rounding (round half to even) at the requested
    number of places, computed from the exact fraction so values like
    84/305 print as 0.27541 rather than a truncated 0.27540.
    """
    if places is None:
        places = precision()
    frac = Fraction(value)
    with decimal.localcontext() as ctx:
        ctx.prec = places + 30
        ctx.rounding = decimal.ROUND_HALF_EVEN
        d = decimal.Decimal(frac.numerator) / decimal.Decimal(frac.denominator)
        quantum = decimal.Decimal(1).scaleb(-places)
        return str(d.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN))


def frac_str(value):
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def parse_frac(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"not a rational number: {text!r}")


def canonical_json(obj):
    """Stable JSON rendering used for hashing and byte-reproducible output.

    Returns exactly ``json.dumps(obj, indent=2)``, which CPython renders in
    its pure-Python encoder.  This writer produces the same string directly:
    str-keyed dicts, lists and tuples are written with a table of line
    pads, a list of ints is one join, and a list of equal-length int lists
    (every `terms` list, every list of [file, sign] pairs) is one %d
    template.  Anything else (floats, bools, None, non-str keys,
    subclasses, unsupported types) goes to json.dumps itself, so output and
    exceptions match; so does a whole document nested deeper than
    _MAX_DEPTH, which covers circular references.
    """
    try:
        return _value(obj, 0)
    except _TooDeep:
        return json.dumps(obj, indent=2)


_MAX_DEPTH = 64
_CACHED_ITEMS = 256
_PAD = ["\n" + "  " * d for d in range(_MAX_DEPTH + 3)]


class _TooDeep(Exception):
    pass


def _value(obj, depth):
    kind = type(obj)
    if kind is str:
        return _str(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict:
        return _dict(obj, depth)
    if kind is list or kind is tuple:
        return _list(obj, depth)
    return _delegate(obj, depth)


def _delegate(obj, depth):
    text = json.dumps(obj, indent=2)
    return text.replace("\n", _PAD[depth]) if depth else text


def _dict(obj, depth):
    if not obj:
        return "{}"
    if depth >= _MAX_DEPTH:
        raise _TooDeep
    parts = []
    for key, value in obj.items():
        if type(key) is not str:
            return _delegate(obj, depth)
        parts.append(_str(key) + ": " + _value(value, depth + 1))
    pad = _PAD[depth + 1]
    return "{" + pad + ("," + pad).join(parts) + _PAD[depth] + "}"


def _list(obj, depth):
    if not obj:
        return "[]"
    if depth >= _MAX_DEPTH:
        raise _TooDeep
    pad = _PAD[depth + 1]
    first = type(obj[0])
    if first is int and set(map(type, obj)) == _INT:
        return ("[" + pad + ("," + pad).join(map(int.__repr__, obj))
                + _PAD[depth] + "]")
    if (first is list or first is tuple) and obj[0] \
            and set(map(type, obj)) <= _SEQ:
        width = len(obj[0])
        flat = tuple([v for row in obj for v in row])
        if set(map(len, obj)) == {width} and set(map(type, flat)) == _INT:
            # short templates are cached; a long one costs about as much
            # to build as the text it formats
            template = (_rows_template if len(flat) <= _CACHED_ITEMS
                        else _rows_template.__wrapped__)
            return template(depth, width, len(obj)) % flat
    return ("[" + pad + ("," + pad).join([_value(v, depth + 1) for v in obj])
            + _PAD[depth] + "]")


@functools.lru_cache(maxsize=256)
def _rows_template(depth, width, count):
    """A %d template for `count` lists of `width` ints at `depth`."""
    pad, inner = _PAD[depth + 1], _PAD[depth + 2]
    row = "[" + inner + ("," + inner).join(["%d"] * width) + pad + "]"
    return "[" + pad + ("," + pad).join([row] * count) + _PAD[depth] + "]"


_INT = {int}
_SEQ = {list, tuple}


def input_digest(obj):
    """Hex digest identifying the resolved inputs of a CLI invocation."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def meta_header(command, inputs, seed=None):
    from . import __version__

    return {
        "tool": "pirlab",
        "version": __version__,
        "input_sha256": input_digest({"command": command, "inputs": inputs}),
        "seed": seed,
    }
