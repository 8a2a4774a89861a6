"""Mutation fuzz of the command line's input boundary.

Hypothesis takes a valid K3 scheme (in the v2 column layout and in the v1
layout of one object per row, each with its patterns and side information
stored), K3 transform or graph document, swaps one value at a random path
for a value of another kind (or deletes a key) and runs a command that
reads the document, in process.  Whatever the mutation, `main` returns 0,
2, 3 or 4, raises nothing, and a non-zero exit prints exactly one `error:`
line after the schema line.  A mutation that puts a non-integer where the
document held an integer makes the document malformed: it exits 2, never
with an "ok".  A pattern's `step` and `class` are not read, so a mutation
there need not.

A meaning oracle keeps the types but breaks the scheme: in a K3 or K4
scheme document, a term gets another subfile in 1..L or another file its
server stores, or two rows at a server swap places.  `simulate`,
`extract` and `transform` then exit 0, 2 or 3, and print `"ok":true` only
if `analyze` accepts the mutated scheme, read from either layout.

Targeted mutations of the v2 columns (columns of unequal length, row ends
that fall or end off the columns, a bool, float or negative entry, a
selection column of the wrong length, one pattern selection edited) exit 2
from all three commands with one line.

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

from reference_scheme import v1_document, v2_document

_SCHEME = build_scheme(3, 0)
# read back from their text, as the CLI reads them: `_mutate` descends
# into lists and dicts only
_DOCS = {kind: json.loads(canonical_json(doc)) for kind, doc in (
    ("scheme", v1_document(_SCHEME)),
    ("scheme_v2", v2_document(_SCHEME)),
    ("transform", transform(_SCHEME).to_json()),
    ("graph", make_graph("complete", [3]).to_json()))}
_SCHEME_COMMANDS = [["extract", "--scheme", "{path}"],
                    ["transform", "--scheme", "{path}"],
                    ["simulate", "--scheme", "{path}", "--seed", "1"]]
_COMMANDS = {
    "scheme": _SCHEME_COMMANDS,
    "scheme_v2": _SCHEME_COMMANDS,
    "transform": [["simulate", "--scheme", "{path}", "--seed", "1"],
                  ["simulate", "--scheme", "{path}", "--seed", "1",
                   "--trials", "20"]],
    "graph": [["general", "--graph", "{path}", "--enumerate"]],
}
_VALUES = [None, True, -1, 0, 7, 0.5, "x", [], {}, [1, 1]]
_DELETE = object()


def _mutate(doc, data):
    """`doc` with the value at a drawn path replaced, or its key deleted;
    returns the new document, the path, and the old and new value there."""
    doc = copy.deepcopy(doc)
    parent, path, node = None, [], doc
    for _ in range(data.draw(st.integers(0, 6), label="depth")):
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        path.append(data.draw(st.sampled_from(keys), label="key"))
        parent, node = node, node[path[-1]]
    choices = _VALUES + ([_DELETE] if isinstance(parent, dict) else [])
    value = data.draw(st.sampled_from(choices), label="value")
    if value is _DELETE:
        del parent[path[-1]]
    elif parent is None:
        return copy.deepcopy(value), path, node, value
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc, path, node, value


def _malformed(path, old, new):
    """Whether replacing `old` by `new` at `path` must make the document
    malformed; a pattern's step and class are not read."""
    if new is _DELETE or "step" in path or "class" in path:
        return False
    return type(old) is int and type(new) is not int


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
    doc, path_in_doc, old, new = _mutate(_DOCS[kind], data)
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([a.format(path=path) for a in argv])
    assert rc in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if rc:
        assert len(lines) == 2 and lines[1].startswith("error: "), lines
        assert out.getvalue() == ""
    if _malformed(path_in_doc, old, new):
        assert rc == 2, (path_in_doc, old, new)
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


def _layouts(doc):
    """`doc`, and its v2 rendering when it loads."""
    try:
        scheme = DeterministicScheme.from_json(doc)
    except ParameterError:
        return [doc]
    return [doc, json.loads(canonical_json(scheme.to_json()))]


@pytest.mark.parametrize("n,count", [(3, 100), (4, 40)])
def test_mutated_schemes_pass_only_if_analysis_accepts(tmp_path, n, count):
    base = json.loads(canonical_json(v1_document(build_scheme(n, 0))))
    rng = random.Random(n)
    path = tmp_path / "doc.json"
    for _ in range(count):
        mutated = _meaning_mutation(base, rng)
        accepted = _analysis_accepts(mutated)
        for doc in _layouts(mutated):
            path.write_text(json.dumps(doc))
            for argv in _SCHEME_COMMANDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = main([a.format(path=path) for a in argv])
                assert rc in (0, 2, 3), (argv, doc)
                assert accepted or '"ok":true' not in out.getvalue(), \
                    (argv, doc)


# ============================================================
# targeted mutations of the v2 columns
# ============================================================

def _server(doc, data):
    srv = data.draw(st.sampled_from(sorted(doc["queries"])), label="server")
    return srv, doc["queries"][srv]


def _ends_message(srv, cols):
    return (f"row ends of server {srv} must rise from 0 to "
            f"{len(cols['file'])}, the length of its columns")


def _unequal_columns(doc, data):
    srv, cols = _server(doc, data)
    name = data.draw(st.sampled_from(["file", "subfile", "sign"]),
                     label="column")
    cols[name].append(1) if data.draw(st.booleans(), label="longer") \
        else cols[name].pop()
    first = "subfile" if name == "file" else name
    return (f"the {first} column of server {srv} has {len(cols[first])} "
            f"entries, not {len(cols['file'])}")


def _unequal_side_info(doc, data):
    name = data.draw(st.sampled_from(["server", "index"]), label="column")
    doc["side_info"][name].append(1)
    side = doc["side_info"]
    return (f"the side_info index column has {len(side['index'])} entries, "
            f"not {len(side['server'])}")


def _falling_ends(doc, data):
    srv, cols = _server(doc, data)
    i = data.draw(st.integers(0, len(cols["ends"]) - 2), label="row")
    ends = cols["ends"]
    ends[i], ends[i + 1] = ends[i + 1], ends[i]
    return _ends_message(srv, cols)


def _ends_off_the_columns(doc, data):
    srv, cols = _server(doc, data)
    ends = cols["ends"]
    edit = data.draw(st.sampled_from(["short", "past", "drop"]), label="edit")
    if edit == "drop":
        ends.pop()
    else:
        ends[-1] += -1 if edit == "short" else 1
    return _ends_message(srv, cols)


def _bad_entry(doc, data):
    """A bool, a float or a negative number in an integer column."""
    kind = data.draw(st.sampled_from(["bool", "float", "negative"]),
                     label="kind")
    where = data.draw(st.sampled_from(
        ["file", "subfile", "sign", "ends", "target", "selections",
         "side_info server", "side_info index"]), label="where")

    def bad(old):
        return {"bool": True, "float": float(old),
                "negative": -2 if where == "sign" else -1}[kind]

    if where in ("file", "subfile", "sign", "ends"):
        srv, cols = _server(doc, data)
        i = data.draw(st.integers(0, len(cols[where]) - 1), label="entry")
        cols[where][i] = new = bad(cols[where][i])
        if where == "ends":
            return _ends_message(srv, cols) if kind == "negative" \
                else f"row end must be an integer, got {new!r}"
        term = tuple(cols[name][i] for name in ("file", "subfile", "sign"))
        what = {"file": "file id", "subfile": "subfile index",
                "sign": "sign"}[where]
        return f"bad {what} in term {term}"
    # a negative target, selection or side-information entry is an
    # integer, but not one the rows give
    differs = "patterns do not follow from the rows"
    pats = doc["patterns"]
    if where == "target":
        i = data.draw(st.integers(0, len(pats["target"]) - 1), label="entry")
        pats["target"][i] = new = bad(pats["target"][i])
        return differs if kind == "negative" \
            else f"pattern target must be an integer, got {new!r}"
    if where == "selections":
        srv = data.draw(st.sampled_from(sorted(pats["selections"])),
                        label="server")
        column = pats["selections"][srv]
        i = data.draw(st.integers(0, len(column) - 1), label="entry")
        column[i] = new = bad(column[i] if column[i] is not None else 0)
        return differs if kind == "negative" \
            else f"pattern selection must be an integer, got {new!r}"
    side = doc["side_info"]
    side["server"].append(1)
    side["index"].append(0)
    name = where.split()[1]
    side[name][-1] = new = bad(side[name][-1])
    return differs if kind == "negative" \
        else f"side info {name} must be an integer, got {new!r}"


def _selection_column_length(doc, data):
    pats = doc["patterns"]
    srv = data.draw(st.sampled_from(sorted(pats["selections"])),
                    label="server")
    column = pats["selections"][srv]
    column.append(None) if data.draw(st.booleans(), label="longer") \
        else column.pop()
    return (f"the selections column of server {srv} has {len(column)} "
            f"entries, not {len(pats['target'])}")


def _selection_edited(doc, data):
    pats = doc["patterns"]
    srv = data.draw(st.sampled_from(sorted(pats["selections"])),
                    label="server")
    column = pats["selections"][srv]
    i = data.draw(st.integers(0, len(column) - 1), label="entry")
    rows = len(doc["queries"][srv]["ends"])
    column[i] = data.draw(st.sampled_from(
        [idx for idx in [None, *range(rows)] if idx != column[i]]),
        label="row")
    return "patterns do not follow from the rows"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_v2_column_mutations_exit_2(tmp_path, data):
    mutation = data.draw(st.sampled_from([
        _unequal_columns, _unequal_side_info, _falling_ends,
        _ends_off_the_columns, _bad_entry, _selection_column_length,
        _selection_edited]), label="mutation")
    doc = copy.deepcopy(_DOCS["scheme_v2"])
    message = mutation(doc, data)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in _SCHEME_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([a.format(path=path) for a in argv])
        assert (rc, out.getvalue()) == (2, ""), (argv, message)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().splitlines()[1:] == [f"error: {message}"], \
            argv


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
