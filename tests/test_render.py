"""canonical_json: compact JSON in insertion order, as the stdlib writes it.

Every document pirlab emits goes through canonical_json, so these checks
pin its contract: the text of json.dumps with the "," and ":" separators
(no whitespace, keys in insertion order, non-ASCII escaped) for any value,
the same exceptions for values JSON cannot hold, and documents that parse
back to the objects they came from.
"""

import enum
import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from pirlab.builder import build_scheme
from pirlab.render import canonical_json
from pirlab.scheme import DeterministicScheme, ProbabilisticScheme
from pirlab.transform import transform


def _same(value):
    assert canonical_json(value) == json.dumps(value, separators=(",", ":"))


# ============================================================
# random JSON values
# ============================================================

_ints = st.integers() | st.integers(-10**40, 10**40)
_floats = st.floats(allow_nan=True, allow_infinity=True) \
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
_text = st.text() | st.text(st.characters(max_codepoint=0x1f)) \
    | st.text(st.characters(min_codepoint=0x80))
_leaves = st.none() | st.booleans() | _ints | _floats | _text
_keys = _text | _ints | _floats | st.booleans() | st.none()


def _int_rows(equal):
    if equal:
        return st.integers(0, 4).flatmap(
            lambda width: st.lists(st.lists(_ints, min_size=width,
                                            max_size=width)
                                   | st.tuples(*[_ints] * width),
                                   max_size=6))
    return st.lists(st.lists(_ints, max_size=4), max_size=6)


def _containers(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(_text, children, max_size=5)
            | st.dictionaries(_keys, children, max_size=5))


_values = st.recursive(_leaves | _int_rows(True) | _int_rows(False)
                       | st.lists(_ints, max_size=8),
                       _containers, max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_matches_json_dumps(value):
    _same(value)


class _Opaque:
    pass


@settings(max_examples=50, deadline=None)
@given(_values, st.sampled_from([_Opaque(), {1, 2}, b"bytes", 1j,
                                 {(1, 2): 3}]),
       st.integers(0, 3))
def test_unserializable_raises_like_json_dumps(value, bad, depth):
    for _ in range(depth):
        value = [value, {"k": bad}] if depth % 2 else {"a": value, "b": [bad]}
    value = [value, bad]
    with pytest.raises(Exception) as ours:
        canonical_json(value)
    with pytest.raises(Exception) as theirs:
        json.dumps(value, separators=(",", ":"))
    assert type(ours.value) is type(theirs.value)
    assert str(ours.value) == str(theirs.value)


# ============================================================
# edge cases by hand
# ============================================================

class _Colour(enum.IntEnum):
    RED = 1


class _Str(str):
    pass


class _List(list):
    pass


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"a": []}, [[], []], [[1], []],
    [[1, 2], (3, 4)], [[True, 1]], [[1.0, 2]], [[1, 2], [3]],
    [1, True], [1, 2.5], [None], {"x": None, "y": True, "z": -0.0},
    {1: 2, "1": 3, 2.5: [4], True: 5, None: 6},
    [_Colour.RED, [_Colour.RED, 2]], {"k": _Str("v")}, _List([1, [2]]),
    OrderedDict(b=1, a=[2]), "é\n\x00\"\\", 10**50, -0.0, float("nan"),
], ids=repr)
def test_edge_cases(value):
    _same(value)


def test_deep_nesting_matches():
    for depth in (60, 70, 200):
        value = 0
        for i in range(depth):
            value = [value] if i % 2 else {"d": value}
        _same(value)


def test_circular_reference_raises_like_json_dumps():
    loop = [1]
    loop.append({"back": loop})
    with pytest.raises(ValueError, match="Circular reference detected"):
        canonical_json(loop)


@pytest.mark.parametrize("n,theta", [(3, 0), (4, 5), (5, 7)])
def test_scheme_documents_match(n, theta):
    scheme = build_scheme(n, theta)
    prob = transform(scheme)
    _same(scheme.to_json())
    _same(prob.to_json())
    assert DeterministicScheme.from_json(
        json.loads(canonical_json(scheme.to_json()))) == scheme
    assert ProbabilisticScheme.from_json(
        json.loads(canonical_json(prob.to_json()))) == prob
