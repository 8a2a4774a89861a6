"""canonical_json: compact JSON in insertion order, as the stdlib writes it.

Every document pirlab emits goes through canonical_json, so these checks
pin its contract on random values: ASCII-only text with non-ASCII escaped,
no whitespace outside strings, keys in insertion order, and the same bytes
on every call, also after the text is read back and written again.  The
hand-picked cases compare the text with json.dumps and its "," and ":"
separators, and documents parse back to the objects they came from.
"""

import copy
import enum
import hashlib
import json
import re
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from pirlab import cli, render
from pirlab.builder import build_scheme
from pirlab.render import canonical_json, input_digest
from pirlab.scheme import DeterministicScheme, ProbabilisticScheme
from pirlab.transform import transform


def _same(value):
    assert canonical_json(value) == json.dumps(value, separators=(",", ":"))


# ============================================================
# the contract on random values
# ============================================================

_ints = st.integers() | st.integers(-10**40, 10**40)
_text = st.text() | st.text(st.characters(max_codepoint=0x1f)) \
    | st.text(st.characters(min_codepoint=0x80))
_leaves = st.none() | st.booleans() | _ints | _text \
    | st.floats(allow_nan=False, allow_infinity=False)
# string keys only, so the key order can be read back from the text
_values = st.recursive(
    _leaves,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(_text, children, max_size=5)),
    max_leaves=30)

_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _pairs(value):
    """`value` as json.loads(..., object_pairs_hook=list) gives it back."""
    if isinstance(value, dict):
        return [(k, _pairs(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_pairs(v) for v in value]
    return value


@settings(max_examples=150, deadline=None)
@given(_values)
def test_compact_ascii_in_insertion_order(value):
    text = canonical_json(value)
    assert text.isascii()
    assert not re.search(r"\s", _STRING.sub('""', text))
    assert json.loads(text, object_pairs_hook=list) == _pairs(value)


@settings(max_examples=100, deadline=None)
@given(_values)
def test_same_bytes_on_every_call(value):
    text = canonical_json(value)
    assert canonical_json(value) == text
    assert canonical_json(copy.deepcopy(value)) == text
    assert canonical_json(json.loads(text)) == text


def test_escapes_and_separators_by_hand():
    value = {"z\u00e9": ["\U0001f600\n", 1.5, None], "a": {"b": True}}
    assert canonical_json(value) == \
        '{"z\\u00e9":["\\ud83d\\ude00\\n",1.5,null],"a":{"b":true}}'


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


# ============================================================
# the encoder without its cycle scan
# ============================================================

def _checked_digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_command_documents_encode_as_the_checked_encoder(
        n, tmp_path, capsys, monkeypatch):
    # every document a command writes and every input a digest covers, as
    # the objects the command hands the encoder (term tuples and all)
    docs, inputs = [], []
    emit, digest = cli._emit_doc, render.input_digest
    monkeypatch.setattr(cli, "_emit_doc",
                        lambda doc, out: docs.append(doc) or emit(doc, out))
    monkeypatch.setattr(render, "input_digest",
                        lambda obj: inputs.append(obj) or digest(obj))
    scheme, prob = str(tmp_path / "scheme.json"), str(tmp_path / "prob.json")
    last = str(n * (n - 1) // 2 - 1)
    for argv in (["sequences", "--n", str(n)],
                 ["build", "--n", str(n), "--theta", last, "--out", scheme],
                 ["extract", "--scheme", scheme],
                 ["transform", "--scheme", scheme, "--out", prob],
                 ["simulate", "--scheme", scheme, "--seed", "1"],
                 ["simulate", "--scheme", prob, "--seed", "1"],
                 ["simulate", "--scheme", prob, "--seed", "1",
                  "--trials", "20"],
                 ["general", "--graph", f"complete:{n}", "--enumerate"],
                 ["general", "--graph", f"complete:{n}", "--theta", last,
                  "--seed", "1"],
                 ["audit", "--family", f"k{n}", "--mode", "structural"],
                 ["audit", "--family", f"transform:k{n}",
                  "--mode", "distributional"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(docs) == len(inputs) == 11
    for doc in docs:
        _same(doc)
    for obj in inputs:
        assert digest(obj) == _checked_digest(obj)


def test_digest_of_a_cycle_raises_like_json_dumps():
    loop = {"command": "build", "inputs": []}
    loop["inputs"].append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        input_digest(loop)


@pytest.mark.parametrize("encode", [canonical_json, input_digest])
def test_nesting_past_the_recursion_limit_raises_like_json_dumps(encode):
    # deeper than the recursion limit of any CPython the project supports
    value = 0
    for _ in range(100_000):
        value = [value]
    with pytest.raises(RecursionError) as expected:
        json.dumps(value)
    with pytest.raises(RecursionError) as raised:
        encode(value)
    assert str(raised.value) == str(expected.value)
