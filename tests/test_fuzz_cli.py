"""Mutation fuzz of the command line's input boundary.

Hypothesis takes a valid K3 scheme, K3 transform or graph document, swaps
one value at a random path for a value of another kind (or deletes a key)
and runs a command that reads the document, in process.  Whatever the
mutation, `main` returns 0, 2, 3 or 4, raises nothing, and a non-zero exit
prints exactly one `error:` line after the schema line.  A mutation that
puts a non-integer where the document held an integer (other than a null
optional `step`), or anything but a string or null in place of a pattern's
`class`, makes the document malformed: it exits 2, never with an "ok".
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from pirlab.builder import build_scheme
from pirlab.cli import main
from pirlab.graphs import make_graph
from pirlab.transform import transform

_SCHEME = build_scheme(3, 0)
_DOCS = {
    "scheme": _SCHEME.to_json(),
    "transform": transform(_SCHEME).to_json(),
    "graph": make_graph("complete", [3]).to_json(),
}
_COMMANDS = {
    "scheme": [["extract", "--scheme", "{path}"],
               ["transform", "--scheme", "{path}"],
               ["simulate", "--scheme", "{path}", "--seed", "1"]],
    "transform": [["simulate", "--scheme", "{path}", "--seed", "1"],
                  ["simulate", "--scheme", "{path}", "--seed", "1",
                   "--trials", "20"]],
    "graph": [["general", "--graph", "{path}", "--enumerate"]],
}
_VALUES = [None, True, -1, 0, 7, 0.5, "x", [], {}, [1, 1]]
_DELETE = object()


def _mutate(doc, data):
    """`doc` with the value at a drawn path replaced, or its key deleted;
    returns the new document, the key, and the old and new value there."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 6), label="depth")):
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys), label="key")
        parent, node = node, node[key]
    choices = _VALUES + ([_DELETE] if isinstance(parent, dict) else [])
    value = data.draw(st.sampled_from(choices), label="value")
    if value is _DELETE:
        del parent[key]
    elif parent is None:
        return copy.deepcopy(value), key, node, value
    else:
        parent[key] = copy.deepcopy(value)
    return doc, key, node, value


def _malformed(key, old, new):
    """Whether replacing `old` by `new` at `key` must make the document
    malformed."""
    if new is _DELETE:
        return False
    if key == "class":
        return not (new is None or type(new) is str)
    return (type(old) is int and type(new) is not int
            and not (key == "step" and new is None))


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_exit_cleanly(tmp_path, data):
    kind = data.draw(st.sampled_from(sorted(_DOCS)), label="kind")
    argv = data.draw(st.sampled_from(_COMMANDS[kind]), label="argv")
    path = tmp_path / "doc.json"
    doc, key, old, new = _mutate(_DOCS[kind], data)
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([a.format(path=path) for a in argv])
    assert rc in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if rc:
        assert len(lines) == 2 and lines[1].startswith("error: "), lines
        assert out.getvalue() == ""
    if _malformed(key, old, new):
        assert rc == 2, (key, old, new)
        assert '"ok":true' not in out.getvalue()
