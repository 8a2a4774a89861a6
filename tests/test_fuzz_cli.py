"""Mutation fuzz of the command line's input boundary.

Hypothesis takes a valid K3 scheme (the `pirlab/build/v2` rows that
`build` writes, the v1 layout of one object per row and the v2 columns
with patterns and side information stored), K3 transform or graph
document, swaps one value at a random path for a value of another kind
(or deletes a key) and runs a command that reads the document, in
process.  Whatever the mutation, `main` returns 0, 2, 3 or 4, raises
nothing, and a non-zero exit prints exactly one `error:` line after the
schema line.  A mutation that puts a non-integer where the document held
an integer makes the document malformed: it exits 2, never with an
"ok".  The v1 and the annotated documents are refused whatever the
mutation: it exits 2.  No line of stderr is longer than 512 bytes.

A meaning oracle keeps the types but breaks the scheme: in a K3 or K4
scheme, a term gets another subfile in 1..L or another file its server
stores, or two rows at a server swap places.  `simulate`, `extract` and
`transform` then exit 0, 2 or 3 on the v2 document of those rows, and
print `"ok":true` only if `analyze` accepts them; the v1 document of the
same rows exits 2.  A seeded corpus of 1 to 12 subfile edits of the K5
and K6 rows holds each refusal to the same 512 bytes, and so do two
documents whose one violation names numbers of hundreds of digits.

Targeted mutations of the v2 columns (columns of unequal length, row ends
that fall or end off the columns, a bool, float or negative entry) exit 2
from all three commands with one line; so does any edit of the stored
pattern and side-information columns, which are refused unread.

A document holding an integer of 5,000 digits, or an array nested
200,000 deep, exits 2 from every command that reads a document path, with
one line that names the limit it passes.

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
import sys

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

from reference_scheme import v1_document, v1_rows_as_columns, v2_document

_SCHEME = build_scheme(3, 0)
# read back from their text, as the CLI reads them: `_mutate` descends
# into lists and dicts only
_DOCS = {kind: json.loads(canonical_json(doc)) for kind, doc in (
    ("scheme", _SCHEME.to_json()),
    ("scheme_v1", v1_document(_SCHEME)),
    ("scheme_annotated", v2_document(_SCHEME)),
    ("transform", transform(_SCHEME).to_json()),
    ("graph", make_graph("complete", [3]).to_json()))}
# the documents pirlab no longer reads
_REFUSED = {"scheme_v1", "scheme_annotated"}
_SCHEME_COMMANDS = [["extract", "--scheme", "{path}"],
                    ["transform", "--scheme", "{path}"],
                    ["simulate", "--scheme", "{path}", "--seed", "1"]]
_COMMANDS = {
    "scheme": _SCHEME_COMMANDS,
    "scheme_v1": _SCHEME_COMMANDS,
    "scheme_annotated": _SCHEME_COMMANDS,
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


def _malformed(old, new):
    """Whether replacing `old` by `new` must make the document malformed."""
    return new is not _DELETE and type(old) is int and type(new) is not int


def _run(argv):
    """`main(argv)` in process: its exit code, stdout and stderr lines,
    each line held to 512 bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refuses "nan" for an int flag
            rc = exc.code
    lines = err.getvalue().splitlines()
    assert all(len(line.encode()) <= 512 for line in lines), lines
    return rc, out.getvalue(), lines


def test_fuzzed_term_arrays_are_lists():
    # _mutate walks dicts and lists only, so terms and columns must be
    # lists to be hit
    assert type(_DOCS["scheme_v1"]["queries"]["1"][0]["terms"][0]) is list
    assert type(_DOCS["scheme"]["queries"]["1"]["file"]) is list


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_exit_cleanly(tmp_path, data):
    kind = data.draw(st.sampled_from(sorted(_DOCS)), label="kind")
    argv = data.draw(st.sampled_from(_COMMANDS[kind]), label="argv")
    path = tmp_path / "doc.json"
    doc, path_in_doc, old, new = _mutate(_DOCS[kind], data)
    path.write_text(json.dumps(doc))
    rc, out, lines = _run([a.format(path=path) for a in argv])
    assert rc in (0, 2, 3, 4)
    if rc:
        assert len(lines) == 2 and lines[1].startswith("error: "), lines
        assert out == ""
    if kind in _REFUSED or _malformed(old, new):
        assert rc == 2, (path_in_doc, old, new)
        assert '"ok":true' not in out


def _meaning_mutation(doc, rng):
    """The v1 document `doc` with one term given another subfile in 1..L
    or another file its server stores, or with two rows at one server
    swapped."""
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
    base = json.loads(canonical_json(v1_document(build_scheme(n, 0))))
    rng = random.Random(n)
    path = tmp_path / "doc.json"
    for _ in range(count):
        mutated = _meaning_mutation(base, rng)
        columns = v1_rows_as_columns(mutated)
        accepted = _analysis_accepts(columns)
        for doc, refused in ((mutated, True), (columns, False)):
            path.write_text(json.dumps(doc))
            for argv in _SCHEME_COMMANDS:
                rc, out, _lines = _run([a.format(path=path) for a in argv])
                assert rc in ((2,) if refused else (0, 2, 3)), (argv, doc)
                assert accepted or '"ok":true' not in out, (argv, doc)


def _subfile_edits(doc, rng, edits):
    """The v2 document `doc` with `edits` terms, drawn at random, each given
    a subfile drawn from 1..L."""
    doc = copy.deepcopy(doc)
    for _ in range(edits):
        cols = doc["queries"][rng.choice(sorted(doc["queries"]))]
        cols["subfile"][rng.randrange(len(cols["subfile"]))] = \
            rng.randint(1, doc["L"])
    return doc


@pytest.mark.parametrize("n,count", [(5, 24), (6, 12)])
def test_multi_edit_refusals_stay_short(tmp_path, n, count):
    # 1 to 12 subfile edits of the K5 and K6 rows break up to a dozen
    # conditions, each naming lists of up to 12 entries: every refusal is
    # still one line within `_run`'s 512 bytes
    base = json.loads(canonical_json(build_scheme(n, 0).to_json()))
    rng = random.Random(n)
    path = tmp_path / "doc.json"
    for i in range(count):
        path.write_text(json.dumps(_subfile_edits(base, rng, 1 + i % 12)))
        for argv in _SCHEME_COMMANDS:
            rc, out, lines = _run([a.format(path=path) for a in argv])
            assert rc in (0, 3), (argv, i)
            if rc:
                assert out == "" and len(lines) == 2, (argv, i)
                assert lines[1].startswith(
                    "error: scheme rows are not independent: "), lines


def _long_subfiles():
    """The K4 rows with 12 desired terms at server 1 given 61-digit
    subfiles."""
    doc = json.loads(canonical_json(build_scheme(4, 0).to_json()))
    cols = doc["queries"]["1"]
    desired = [i for i, f in enumerate(cols["file"]) if f == 0][:12]
    for j, i in enumerate(desired):
        cols["subfile"][i] = 10 ** 60 + j
    return doc


def _long_l():
    """The K3 rows with L = 10**600."""
    return {**_DOCS["scheme"], "L": 10 ** 600}


@pytest.mark.parametrize("make_doc,codes", [(_long_subfiles, (3, 3, 2)),
                                            (_long_l, (3, 3, 3))])
def test_refusals_naming_long_numbers_stay_short(tmp_path, make_doc, codes):
    # one violation names numbers of hundreds of digits: the line past 512
    # bytes is cut, with a marker, and still held to `_run`'s 512 bytes
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make_doc()))
    for argv, code in zip(_SCHEME_COMMANDS, codes):
        rc, out, lines = _run([a.format(path=path) for a in argv])
        assert (rc, out, len(lines)) == (code, "", 2), (argv, lines)
        assert lines[1].startswith("error: "), lines
        if code == 3:
            assert lines[1].endswith(" ... (line cut)"), lines


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
    where = data.draw(st.sampled_from(["file", "subfile", "sign", "ends"]),
                      label="where")
    srv, cols = _server(doc, data)
    i = data.draw(st.integers(0, len(cols[where]) - 1), label="entry")
    old = cols[where][i]
    cols[where][i] = new = {"bool": True, "float": float(old),
                            "negative": -2 if where == "sign" else -1}[kind]
    if where == "ends":
        return _ends_message(srv, cols) if kind == "negative" \
            else f"row end must be an integer, got {new!r}"
    term = tuple(cols[name][i] for name in ("file", "subfile", "sign"))
    what = {"file": "file id", "subfile": "subfile index",
            "sign": "sign"}[where]
    return f"bad {what} in term {term}"


def _annotation_edited(doc, data):
    """An entry of a stored pattern or side-information column set to a
    bool, a float, a negative number, null or another row, or a column made
    longer: the document stores them, so it is refused unread."""
    columns = [doc["patterns"]["target"],
               *doc["patterns"]["selections"].values(),
               doc["side_info"]["server"], doc["side_info"]["index"]]
    column = data.draw(st.sampled_from(columns), label="column")
    value = data.draw(st.sampled_from([True, 0.5, -1, None, 0, 1, 2, 3]),
                      label="value")
    if column and data.draw(st.booleans(), label="in place"):
        column[data.draw(st.integers(0, len(column) - 1),
                         label="entry")] = value
    else:
        column.append(value)
    return ("scheme document stores patterns and side_info; a "
            "pirlab/build/v2 document holds its rows alone")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_v2_column_mutations_exit_2(tmp_path, data):
    mutation = data.draw(st.sampled_from([
        _unequal_columns, _falling_ends, _ends_off_the_columns, _bad_entry,
        _annotation_edited]), label="mutation")
    doc = copy.deepcopy(_DOCS["scheme_annotated" if mutation is
                              _annotation_edited else "scheme"])
    message = mutation(doc, data)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in _SCHEME_COMMANDS:
        rc, out, lines = _run([a.format(path=path) for a in argv])
        assert (rc, out) == (2, ""), (argv, message)
        assert lines[1:] == [f"error: {message}"], argv


# ============================================================
# documents past the JSON reader's limits
# ============================================================

# the K3 rows with L written as 5,000 digits, past the default limit of
# 4,300 digits of an int read from text; and a document whose graph is an
# array nested 200,000 deep, past any recursion limit
_PAST_LIMITS = {
    "long_int": canonical_json({**_DOCS["scheme"], "L": 0}).replace(
        '"L":0', '"L":' + "9" * 5000),
    "deep": '{"graph":' + "[" * 200_000 + "]" * 200_000 + "}",
}


@pytest.mark.parametrize("argv", [
    *_SCHEME_COMMANDS, ["general", "--graph", "{path}", "--enumerate"],
    ["audit", "--family", "general:{path}", "--mode", "distributional"]],
    ids=["extract", "transform", "simulate", "general", "audit"])
@pytest.mark.parametrize("kind", sorted(_PAST_LIMITS))
def test_documents_past_the_reader_limits_exit_2(tmp_path, argv, kind):
    path = tmp_path / "doc.json"
    path.write_text(_PAST_LIMITS[kind])
    rc, out, lines = _run([a.format(path=path) for a in argv])
    assert (rc, out, len(lines)) == (2, "", 2), lines
    assert lines[1] == f"error: {path} " + {
        "long_int": f"holds an integer of more than "
                    f"{sys.get_int_max_str_digits()} digits",
        "deep": f"nests arrays or objects past the recursion limit "
                f"{sys.getrecursionlimit()}"}[kind]


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
    rc, out, lines = _run([a.format(**fields) for a in argv] + [flag, value])
    assert rc in (0, 2, 3)
    assert "NaN" not in out and "Infinity" not in out
    errors = [line for line in lines if "error:" in line]
    if rc and not out:
        assert len(errors) == 1, lines
    else:  # a document; exit code 3 marks an audit that reports a breach
        assert not errors, lines
        assert rc == 0 or '"ok":false' in out
