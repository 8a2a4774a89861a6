"""Mutation fuzz of the command line's input boundary.

Hypothesis takes a valid K3 scheme, K3 transform or graph document, swaps
one value at a random path for a value of another kind (or deletes a key)
and runs a command that reads the document, in process.  Whatever the
mutation, `main` returns 0, 2, 3 or 4, raises nothing, and a non-zero exit
prints exactly one `error:` line after the schema line.  A mutation that
puts a non-integer where the document held an integer (other than a null
optional `step`), or anything but a string or null in place of a pattern's
`class`, makes the document malformed: it exits 2, never with an "ok".

A meaning oracle keeps the types but breaks the scheme: in a K3 or K4
scheme document, a term gets another subfile in 1..L or another file its
server stores, or two rows at a server swap places.  `simulate`,
`extract` and `transform` then exit 0, 2 or 3, and print `"ok":true` only
if `analyze` accepts the mutated scheme.

A last test fuzzes the flags instead: it draws a subcommand, one of its
numeric flags set to 0, -3, 1, nan or a value too large for it, and for
`audit` a family and a mode.  The exit code is 0, 2 or 3, an exit without
a document prints exactly one `error:` line, and no `NaN` or `Infinity`
reaches stdout.
"""

import contextlib
import copy
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pirlab.builder import build_scheme
from pirlab.cli import main
from pirlab.errors import ParameterError
from pirlab.graphs import make_graph
from pirlab.patterns import analyze
from pirlab.render import canonical_json
from pirlab.scheme import DeterministicScheme
from pirlab.sequences import BOUNDS_CAP, BUILDER_CAP
from pirlab.transform import transform

_SCHEME = build_scheme(3, 0)
# read back from their text, as the CLI reads them: `to_json` keeps term
# arrays as tuples, which `_mutate` would not descend into
_DOCS = {kind: json.loads(canonical_json(obj.to_json())) for kind, obj in (
    ("scheme", _SCHEME),
    ("transform", transform(_SCHEME)),
    ("graph", make_graph("complete", [3])))}
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


def test_fuzzed_term_arrays_are_lists():
    # _mutate walks dicts and lists only, so terms must be lists to be hit
    assert type(_DOCS["scheme"]["queries"]["1"][0]["terms"][0]) is list


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


def _meaning_mutation(doc, rng):
    """`doc` with one term given another subfile in 1..L or another file
    its server stores, or with two rows at one server swapped."""
    doc = copy.deepcopy(doc)
    srv = rng.choice(sorted(doc["queries"]))
    rows = doc["queries"][srv]
    kind = rng.choice(("subfile", "file", "swap"))
    if kind == "swap":
        i, j = rng.sample(range(len(rows)), 2)
        rows[i], rows[j] = rows[j], rows[i]
        return doc
    term = rng.choice(rng.choice(rows)["terms"])
    if kind == "subfile":
        term[1] = rng.choice([sub for sub in range(1, doc["L"] + 1)
                              if sub != term[1]])
    else:
        stored = make_graph("complete", [doc["graph"]["n"]]).incident(
            int(srv))
        term[0] = rng.choice([f for f in stored if f != term[0]])
    return doc


def _analysis_accepts(doc):
    try:
        scheme = DeterministicScheme.from_json(doc)
    except ParameterError:
        return False
    return analyze(scheme)[0].ok


@pytest.mark.parametrize("n,count", [(3, 100), (4, 40)])
def test_mutated_schemes_pass_only_if_analysis_accepts(tmp_path, n, count):
    base = json.loads(canonical_json(build_scheme(n, 0).to_json()))
    rng = random.Random(n)
    path = tmp_path / "doc.json"
    for _ in range(count):
        doc = _meaning_mutation(base, rng)
        path.write_text(json.dumps(doc))
        accepted = _analysis_accepts(doc)
        for argv in _COMMANDS["scheme"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main([a.format(path=path) for a in argv])
            assert rc in (0, 2, 3), (argv, doc)
            assert accepted or '"ok":true' not in out.getvalue(), (argv, doc)


# per subcommand: its argv, and each numeric flag with a value too large
# for it (trials has no cap, so its large value is only large)
_FLAG_COMMANDS = {
    "bounds": (["bounds"], {"--min": BOUNDS_CAP + 1,
                            "--max": BOUNDS_CAP + 1}),
    "sequences": (["sequences", "--n", "4"], {"--n": BOUNDS_CAP + 1}),
    "build": (["build", "--n", "3"], {"--n": BUILDER_CAP + 1,
                                      "--theta": 99}),
    "general": (["general", "--graph", "complete:3", "--theta", "0",
                 "--seed", "1"], {"--theta": 99, "--q": 2 ** 70,
                                  "--r": 40}),
    "simulate": (["simulate", "--scheme", "{doc}", "--seed", "1"],
                 {"--q": 2 ** 70, "--trials": 2000}),
    "audit": (["audit", "--family", "{family}", "--mode", "{mode}",
               "--trials", "20", "--seed", "1"],
              {"--q": 2 ** 70, "--trials": 2000, "--epsilon": "1e999"}),
}
_FAMILIES = ["k3", "transform:k3", "general:star:3", "general:complete:3"]
_MODES = ["structural", "distributional", "statistical", "exact"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flag_values_exit_cleanly(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(_FLAG_COMMANDS)),
                        label="command")
    argv, large = _FLAG_COMMANDS[command]
    flag = data.draw(st.sampled_from(sorted(large)), label="flag")
    value = data.draw(st.sampled_from(["0", "-3", "1", "nan",
                                       str(large[flag])]), label="value")
    kind = data.draw(st.sampled_from(["scheme", "transform"]), label="doc")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_DOCS[kind]))
    fields = {"doc": path,
              "family": data.draw(st.sampled_from(_FAMILIES), label="family"),
              "mode": data.draw(st.sampled_from(_MODES), label="mode")}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main([a.format(**fields) for a in argv] + [flag, value])
        except SystemExit as exc:  # argparse refuses "nan" for an int flag
            rc = exc.code
    assert rc in (0, 2, 3)
    assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    if rc and not out.getvalue():
        assert len(errors) == 1, err.getvalue()
    else:  # a document; exit code 3 marks an audit that reports a breach
        assert not errors, err.getvalue()
        assert rc == 0 or '"ok":false' in out.getvalue()
