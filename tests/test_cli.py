"""Command line interface: subcommands, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import pirlab
from pirlab.bounds import BOUNDS_CAP
from pirlab import cli
from pirlab.cli import main
from pirlab.errors import InternalConsistencyError

from pirlab.builder import build_scheme
from pirlab.patterns import extract_patterns
from pirlab.render import canonical_json
from pirlab.scheme import DeterministicScheme

from conftest import FIXTURES, load_json
from reference_scheme import v1_document, v2_document


def run_cli(capsys, *args):
    try:
        rc = main(list(args))
    except SystemExit as exc:  # argparse uses SystemExit(2) for bad usage
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


# ============================================================
# bounds
# ============================================================

def test_bounds_csv(capsys):
    rc, out, err = run_cli(capsys, "bounds", "--max", "4")
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "n,upper,lower,upper_coeff,lower_coeff"
    assert lines[1] == "3,0.50000,0.50000,1.50000,1.50000"
    assert lines[2] == "4,0.35294,0.35000,1.41176,1.40000"
    assert out.splitlines()[0].startswith("#")
    assert "pirlab/bounds/v1" in err


def test_bounds_markdown(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--max", "5", "--format", "markdown")
    assert rc == 0
    assert "|" in out
    assert "0.27907" in out


def test_bounds_precision_env(capsys, monkeypatch):
    # the same flags print the same bytes, whatever the environment says
    plain = run_cli(capsys, "bounds", "--max", "3")
    assert plain[0] == 0 and "0.50000" in plain[1]
    monkeypatch.setenv("PIRLAB_PRECISION", "3")
    assert run_cli(capsys, "bounds", "--max", "3") == plain


def test_bounds_bad_range(capsys):
    rc, _, err = run_cli(capsys, "bounds", "--max", "2")
    assert rc == 2
    assert err


def test_bounds_cap_edge(capsys):
    cap = str(BOUNDS_CAP)
    rc, out, _ = run_cli(capsys, "bounds", "--min", cap, "--max", cap)
    assert rc == 0
    assert out.splitlines()[-1].startswith(cap + ",")
    rc, out, err = run_cli(capsys, "bounds", "--max", str(BOUNDS_CAP + 1))
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == (f"error: bound tables stop at n = "
                                    f"{cap}, got n_max = {BOUNDS_CAP + 1}")


# ============================================================
# sequences
# ============================================================

def test_sequences_json(capsys):
    rc, out, err = run_cli(capsys, "sequences", "--n", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["x"] == ["1", "5/2", "9/2"]
    assert doc["y"] == [None, "1/2", "0"]
    assert doc["z"] == ["1", "2", None]
    assert doc["M"] == 4
    assert doc["L"] == 84
    assert doc["rate"] == "7/20"
    assert doc["meta"]["tool"] == "pirlab"
    assert "pirlab/sequences/v1" in err


def test_sequences_cap_edge(capsys):
    # from n = 1,451 on, L has more digits than json.dumps may write
    rc, out, _ = run_cli(capsys, "sequences", "--n", str(BOUNDS_CAP))
    assert rc == 0
    assert json.loads(out)["n"] == BOUNDS_CAP
    rc, out, err = run_cli(capsys, "sequences", "--n", str(BOUNDS_CAP + 1))
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == (f"error: sequences stop at n = "
                                    f"{BOUNDS_CAP}, got n = {BOUNDS_CAP + 1}")


# ============================================================
# build / extract / transform
# ============================================================

def test_build_writes_scheme(capsys, tmp_path):
    out_file = tmp_path / "k4.json"
    rc, out, err = run_cli(capsys, "build", "--n", "4", "--out",
                           str(out_file))
    assert rc == 0
    assert out == ""
    assert err == "schema: pirlab/build/v2\n"
    doc = json.loads(out_file.read_text())
    assert doc["L"] == 84
    assert doc["theta"] == 0
    # the rows alone: 60 per server
    assert list(doc) == ["graph", "theta", "L", "queries", "meta"]
    assert [len(cols["ends"]) for cols in doc["queries"].values()] == [60] * 4


def test_build_theta_edge_form_matches_file_id(capsys):
    rc1, out1, _ = run_cli(capsys, "build", "--n", "3", "--theta", "1,3")
    rc2, out2, _ = run_cli(capsys, "build", "--n", "3", "--theta", "1")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_build_over_cap(capsys):
    rc, _, err = run_cli(capsys, "build", "--n", "9")
    assert rc == 2
    assert err


def test_build_refuses_n_over_cap_before_making_the_graph(capsys,
                                                          monkeypatch):
    def no_graph(*args):
        raise AssertionError("K_n was made before the cap check")
    monkeypatch.setattr(cli, "make_graph", no_graph)
    rc, out, err = run_cli(capsys, "build", "--n", "100000")
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == \
        "error: explicit construction is capped at n = 8, got 100000"


def test_build_deterministic_bytes(capsys):
    rc1, out1, _ = run_cli(capsys, "build", "--n", "4")
    rc2, out2, _ = run_cli(capsys, "build", "--n", "4")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_extract_on_fixture(capsys):
    rc, out, err = run_cli(capsys, "extract", "--scheme",
                           str(FIXTURES / "k3_scheme.json"))
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["patterns"]) == 6
    assert doc["side_info"] == []
    assert doc["srp"] == {"1": 3, "2": 3, "ok": True}
    assert "pirlab/extract/v1" in err


def _swapped_k3():
    """K3 at theta = 0, and the same scheme with rows 0 and 1 of server 1
    swapped: still independent, but its patterns select other rows."""
    scheme = build_scheme(3, 0)
    rows = list(scheme.queries[1])
    rows[0], rows[1] = rows[1], rows[0]
    return scheme, scheme.replace(queries={**scheme.queries, 1: tuple(rows)})


_WRITERS = {"v1": v1_document, "v2": v2_document}
_V1_LINE = ("error: scheme document holds the v1 layout, an array of rows "
            "per server; pirlab reads pirlab/build/v2 columns")


def _stored_line(stored):
    return (f"error: scheme document stores {stored}; a pirlab/build/v2 "
            f"document holds its rows alone")


@pytest.mark.parametrize("layout", ["v1", "v2"])
@pytest.mark.parametrize("command", ["extract", "transform", "simulate"])
def test_stored_patterns_must_follow_from_the_rows(capsys, tmp_path, command,
                                                   layout):
    # the document stores the patterns of the rows before the swap, which
    # point at the wrong rows; no stored copy is read, so the document is
    # refused by its layout, as one whose patterns follow is
    scheme, swapped = _swapped_k3()
    write = _WRITERS[layout]
    path = tmp_path / "k3.json"
    for doc in ({**write(scheme), "queries": write(swapped)["queries"]},
                write(swapped)):
        path.write_text(canonical_json(doc))
        rc, out, err = run_cli(capsys, command, "--scheme", str(path))
        assert (rc, out) == (2, "")
        assert _one_line_error(err) == (
            _V1_LINE if layout == "v1"
            else _stored_line("patterns and side_info"))


@pytest.mark.parametrize("layout", ["v1", "v2"])
@pytest.mark.parametrize("command", ["extract", "transform", "simulate"])
def test_stored_side_info_must_follow_from_the_rows(capsys, tmp_path, command,
                                                    layout):
    # K3 has no side information; a document that names row 0 of server 1
    # as side information is refused, with or without stored patterns, and
    # so is one that stores the empty side information the rows give
    doc = _WRITERS[layout](build_scheme(3, 0))
    path = tmp_path / "k3.json"
    for side_info in (doc["side_info"], {"server": [1], "index": [0]}
                      if layout == "v2" else [{"server": 1, "index": 0}]):
        doc["side_info"] = side_info
        for stored, names in ((doc, "patterns and side_info"), (
                {k: v for k, v in doc.items() if k != "patterns"},
                "side_info")):
            path.write_text(canonical_json(stored))
            rc, out, err = run_cli(capsys, command, "--scheme", str(path))
            assert (rc, out) == (2, "")
            assert _one_line_error(err) == (
                _V1_LINE if layout == "v1" else _stored_line(names))


def test_new_rows_drop_the_stored_patterns(capsys, tmp_path):
    # patterns and side information are views of the rows, so new rows
    # give their own; a document stores rows alone, and nothing in it can
    # disagree with them
    scheme, swapped = _swapped_k3()
    assert swapped.patterns == extract_patterns(swapped).patterns
    assert swapped.patterns != scheme.patterns
    assert swapped.side_info == scheme.side_info == ()
    path = tmp_path / "k3.json"
    path.write_text(canonical_json(swapped.to_json()))
    doc = json.loads(path.read_text())
    assert list(doc) == ["graph", "theta", "L", "queries"]
    assert DeterministicScheme.from_json(doc) == swapped
    rc, out, _ = run_cli(capsys, "extract", "--scheme", str(path))
    assert rc == 0
    assert len(json.loads(out)["patterns"]) == scheme.L


# each command runs in a child process under an address-space cap, so
# that building 1..L or drawing storage of L subfiles fails there with
# MemoryError instead of taking the machine's memory
_LONG_L_PROBE = r"""
import contextlib, io, json, resource, sys
from pirlab.cli import main

resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
results = []
for path in sys.argv[1:]:
    for command in ("extract", "transform", "simulate"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, "--scheme", path])
        results.append([rc, err.getvalue()])
print(json.dumps(results))
"""


def test_l_past_the_term_count_is_one_condition_3_line(tmp_path):
    # K3 has 18 terms: L = 18 still lists the missing subfiles, and any L
    # past that is named in one line, however large
    doc = build_scheme(3, 0).to_json()
    assert sum(len(cols["file"]) for cols in doc["queries"].values()) == 18
    paths = []
    for L in (18, 19, 10 ** 30):
        paths.append(tmp_path / f"k3_{L}.json")
        paths[-1].write_text(canonical_json({**doc, "L": L}))
    src = pathlib.Path(pirlab.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _LONG_L_PROBE, *map(str, paths)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    lines = [_one_line_error(err) for rc, err in json.loads(proc.stdout)
             if rc == 3]
    prefix = "error: scheme rows are not independent: [3] "
    assert lines == [
        *[f"{prefix}desired subfiles must appear exactly once each: missing "
          f"{list(range(7, 19))}, repeated or out of range []"] * 3,
        *[f"{prefix}L = {L} exceeds the rows' 18 terms"
          for L in (19, 10 ** 30) for _ in range(3)]]


def test_condition_3_line_stays_short_at_k6(capsys, tmp_path):
    # L at the K6 rows' 45,360 terms leaves 42,336 desired subfiles
    # missing: the line gives their count and the first few
    doc = build_scheme(6, 0).to_json()
    terms = sum(len(cols["file"]) for cols in doc["queries"].values())
    assert terms == 45_360
    path = tmp_path / "k6.json"
    path.write_text(canonical_json({**doc, "L": terms}))
    rc, out, err = run_cli(capsys, "extract", "--scheme", str(path))
    assert (rc, out) == (3, "")
    line = _one_line_error(err)
    assert len(line.encode()) < 200
    assert line == (
        "error: scheme rows are not independent: [3] desired subfiles must "
        "appear exactly once each: missing [3025, 3026, 3027, ... 42336 in "
        "all], repeated or out of range []")


def test_dependent_k6_line_stays_short(capsys, tmp_path):
    # every subfile at server 2 set to 1 breaks 695 conditions, 693 of
    # them condition 4: the line names the first and a count per condition
    doc = build_scheme(6, 0).to_json()
    cols = doc["queries"]["2"]
    cols["subfile"] = [1] * len(cols["subfile"])
    path = tmp_path / "k6.json"
    path.write_text(canonical_json(doc))
    for command in ("extract", "transform", "simulate"):
        rc, out, err = run_cli(capsys, command, "--scheme", str(path))
        assert (rc, out) == (3, ""), command
        line = _one_line_error(err)
        assert len(line.encode()) < 300, command
        assert line == (
            "error: scheme rows are not independent: [2] subfile symbols "
            "[(0, 1), (5, 1), (6, 1), (7, 1), (8, 1)] repeat at server 2; "
            "... 695 in all: 1 of condition 2, 1 of condition 3, 693 of "
            "condition 4")


def test_extract_rejects_dependent_scheme(capsys):
    rc, _, err = run_cli(capsys, "extract", "--scheme",
                         str(FIXTURES / "two_per_server.json"))
    assert rc == 3
    assert err


def test_transform_star(capsys):
    rc, out, _ = run_cli(capsys, "transform", "--scheme",
                         str(FIXTURES / "star4_scheme.json"))
    assert rc == 0
    doc = json.loads(out)
    assert doc["rate"] == "5/12"
    assert len(doc["rows"]) == 5
    assert doc["rows"][0]["p"] == "1/5"
    assert doc["rows"][4]["q"]["1"] is None
    assert doc["rows"][4]["q"]["2"] == [[0, 1]]


def test_transform_infeasible(capsys):
    rc, _, err = run_cli(capsys, "transform", "--scheme",
                         str(FIXTURES / "star_center_heavy.json"))
    assert rc == 3
    assert err


# ============================================================
# general
# ============================================================

def test_general_enumerate(capsys):
    rc, out, _ = run_cli(capsys, "general", "--graph",
                         "edges:1-2,1-3,2-3,1-4", "--enumerate")
    assert rc == 0
    doc = json.loads(out)
    assert doc["rate"] == "8/23"
    assert doc["empty_probabilities"] == {
        "1": "1/8", "2": "1/4", "3": "1/4", "4": "1/2"}


def test_general_sample_deterministic(capsys):
    args = ("general", "--graph", "complete:3", "--theta", "0",
            "--seed", "5", "--q", "257")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["meta"]["seed"] == 5
    assert len(doc["mu"]) == 3
    assert set(doc["queries"]) == {"1", "2", "3"}


def test_general_multigraph_extension(capsys):
    rc, out, _ = run_cli(capsys, "general", "--graph", "complete:3",
                         "--r", "2", "--enumerate")
    assert rc == 0
    assert json.loads(out)["rate"] == "16/45"


@pytest.mark.parametrize("flag", ["false", 0, None])
def test_graph_multigraph_flag_must_be_bool(capsys, tmp_path, flag):
    # a truthy non-bool used to read as true and admit the duplicate edge
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "multigraph": flag,
                                "edges": [[1, 2], [1, 2]]}))
    rc, out, err = run_cli(capsys, "general", "--graph", str(path),
                           "--enumerate")
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == \
        f"error: multigraph must be true or false, got {flag!r}"


def test_general_enumerate_edgeless_graph(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": []}))
    rc, out, err = run_cli(capsys, "general", "--graph", str(path),
                           "--enumerate")
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == \
        "error: a graph with no files has no retrieval rate"


def test_general_bad_theta(capsys):
    rc, _, err = run_cli(capsys, "general", "--graph", "edges:1-2",
                         "--theta", "5")
    assert rc == 2
    assert err


# ============================================================
# simulate
# ============================================================

def test_simulate_deterministic_scheme(capsys, tmp_path):
    scheme = tmp_path / "k4.json"
    run_cli(capsys, "build", "--n", "4", "--out", str(scheme))
    rc, out, _ = run_cli(capsys, "simulate", "--scheme", str(scheme),
                         "--seed", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["rate"] == "7/20"
    assert doc["downloaded_symbols"] == 240


def test_simulate_probabilistic_scheme(capsys, tmp_path):
    prob = tmp_path / "k3_prob.json"
    rc, _, _ = run_cli(capsys, "transform", "--scheme",
                       str(FIXTURES / "k3_scheme.json"), "--out", str(prob))
    assert rc == 0
    rc, out, _ = run_cli(capsys, "simulate", "--scheme", str(prob),
                         "--seed", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["rate"] == "1/2"


def _k3_prob_doc(capsys, tmp_path):
    prob = tmp_path / "k3_prob.json"
    rc, _, _ = run_cli(capsys, "transform", "--scheme",
                       str(FIXTURES / "k3_scheme.json"), "--out", str(prob))
    assert rc == 0
    return prob, json.loads(prob.read_text())


def _two_rows(doc, p0, p1):
    doc["rows"] = doc["rows"][:2]
    doc["rows"][0]["p"], doc["rows"][1]["p"] = p0, p1


def _shadow(mapping, junk):
    """Move the entry of server 1 to the key "01" and leave `junk` under
    "1": a reader taking int() of each key lets "01" replace "1"."""
    mapping["01"] = mapping["1"]
    mapping["1"] = junk


def _shadow_k3_scheme(doc):
    """Replace the transform `doc` by the K3 scheme with shadowed rows."""
    doc.clear()
    doc.update(load_json("k3_scheme.json"))
    _shadow(doc["queries"], _NO_ROWS)


# an empty block of v2 columns
_NO_ROWS = {"file": [], "subfile": [], "sign": [], "ends": []}


def _one_line_error(err):
    lines = err.splitlines()
    assert "Traceback" not in err
    assert len(lines) == 2 and lines[1].startswith("error: ")
    return lines[1]


@pytest.mark.parametrize("trials", [[], ["--trials", "50"]])
def test_simulate_rejects_probabilities_off_one(capsys, tmp_path, trials):
    prob, doc = _k3_prob_doc(capsys, tmp_path)
    for row in doc["rows"]:
        row["p"] = str(Fraction(row["p"]) / 2)
    prob.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "simulate", "--scheme", str(prob),
                           "--seed", "1", *trials)
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == \
        "error: row probabilities sum to 1/2, not 1"


def test_simulate_rejects_negative_probability(capsys, tmp_path):
    prob, doc = _k3_prob_doc(capsys, tmp_path)
    first, second = doc["rows"][0], doc["rows"][1]
    second["p"] = str(Fraction(second["p"]) + 2 * Fraction(first["p"]))
    first["p"] = str(-Fraction(first["p"]))
    prob.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "simulate", "--scheme", str(prob))
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == \
        "error: row 0 has negative probability -1/6"


def test_simulate_negative_trials(capsys, tmp_path):
    prob, _doc = _k3_prob_doc(capsys, tmp_path)
    rc, out, err = run_cli(capsys, "simulate", "--scheme", str(prob),
                           "--trials", "-3", "--seed", "1")
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == \
        "error: trials must be a positive integer, got -3"


def test_simulate_zero_trials_means_exact(capsys, tmp_path):
    prob, _doc = _k3_prob_doc(capsys, tmp_path)
    rc, out, _ = run_cli(capsys, "simulate", "--scheme", str(prob),
                         "--trials", "0", "--seed", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["rate"] == "1/2"


def _wrong_file(doc):
    """Row 0 asks server 1 for file 1, so it recovers file 1, not 0."""
    assert doc["rows"][0]["q"]["1"] == [[0, 1]]
    doc["rows"][0]["q"]["1"] = [[1, 1]]


def _no_pattern_servers(doc):
    for row in doc["rows"]:
        row["pattern_servers"] = []


@pytest.mark.parametrize("trials", [[], ["--trials", "200"]],
                         ids=["exact", "sample"])
@pytest.mark.parametrize("spoil", [_wrong_file, _no_pattern_servers],
                         ids=["wrong-file", "no-pattern-servers"])
def test_simulate_verdict_does_not_depend_on_storage(capsys, tmp_path,
                                                     spoil, trials):
    # each seed draws other contents; rows that miss the desired file for
    # some storage fail for every one of them
    prob, doc = _k3_prob_doc(capsys, tmp_path)
    spoil(doc)
    prob.write_text(json.dumps(doc))
    for seed in range(10):
        rc, out, _ = run_cli(capsys, "simulate", "--scheme", str(prob),
                             "--seed", str(seed), *trials)
        assert rc == 0
        assert json.loads(out)["ok"] is False, seed


@pytest.mark.parametrize("trials,message", [
    ([], "error: no row queries any server, so the rate is undefined"),
    (["--trials", "5"], "error: none of the 5 drawn rows queries any "
                        "server, so the rate is undefined"),
], ids=["exact", "sample"])
def test_simulate_all_idle_scheme(capsys, tmp_path, trials, message):
    prob, doc = _k3_prob_doc(capsys, tmp_path)
    doc["rows"] = [{"p": "1", "q": {"1": None, "2": None, "3": None},
                    "pattern_servers": []}]
    prob.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "simulate", "--scheme", str(prob),
                           "--seed", "1", *trials)
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == message


@pytest.mark.parametrize("command,edit,message", [
    ("extract", lambda doc: doc.update(theta="x"),
     "error: theta must be an integer, got 'x'"),
    ("extract", lambda doc: doc["queries"]["1"]["sign"].__setitem__(0, 2),
     "error: bad sign in term (0, 1, 2)"),
    ("simulate", lambda doc: doc.update(theta="x"),
     "error: theta must be an integer, got 'x'"),
    ("simulate", lambda doc: doc["rows"][0]["q"].update({"1": [[0]]}),
     "error: malformed probabilistic document: not enough values to "
     "unpack (expected 2, got 1)"),
    # a number that must be an integer is never truncated or coerced
    ("extract", lambda doc: doc.update(theta=0.5),
     "error: theta must be an integer, got 0.5"),
    ("extract", lambda doc: doc["graph"]["edges"].__setitem__(0, [1.7, 2]),
     "error: edge end must be an integer, got 1.7"),
    ("extract", lambda doc: doc.update(theta="0"),
     "error: theta must be an integer, got '0'"),
    ("extract", lambda doc: doc.update(theta=True),
     "error: theta must be an integer, got True"),
    ("extract", lambda doc: doc.update(L=2.9),
     "error: L must be an integer, got 2.9"),
    # stored patterns are refused before they are read
    ("extract", lambda doc: doc.update(
        patterns=[{"target": 0, "selections": {"1": 0.2}}]),
     _stored_line("patterns")),
    ("extract", lambda doc: doc["queries"]["1"]["file"].__setitem__(0, True),
     "error: bad file id in term (True, 1, 1)"),
    ("simulate", lambda doc: doc["rows"][0]["q"].update({"1": [[0.4, 1]]}),
     "error: combo file must be an integer, got 0.4"),
    ("simulate", lambda doc: doc.update(theta=0.9),
     "error: theta must be an integer, got 0.9"),
    # a combo sign is +1 or -1, as a summation term's is
    ("simulate", lambda doc: doc["rows"][0]["q"].update({"1": [[0, 7]]}),
     "error: bad sign in combo entry [0, 7] for server 1"),
    # a server XORed in twice cancels its own answer
    ("simulate", lambda doc: doc["rows"][0].update(pattern_servers=[1, 1]),
     "error: pattern servers [1, 1] name a server twice"),
    # a list where the document needs an object
    ("extract", lambda doc: doc.update(graph=[]),
     "error: malformed graph document: 'list' object has no attribute "
     "'get'"),
    ("extract", lambda doc: doc.update(queries=[]),
     "error: malformed scheme document: 'list' object has no attribute "
     "'items'"),
    ("simulate", lambda doc: doc["rows"][0].update(q=[]),
     "error: malformed probabilistic document: 'list' object has no "
     "attribute 'items'"),
    ("extract", lambda doc: doc.update(
        patterns=[{"target": 7, "selections": {}}]),
     _stored_line("patterns")),
    # exact probabilities: a float or bool p is refused, though these sum to 1
    ("simulate", lambda doc: _two_rows(doc, 0.5, 0.5),
     "error: p must be a fraction string or an integer, got 0.5"),
    ("simulate", lambda doc: _two_rows(doc, True, 0),
     "error: p must be a fraction string or an integer, got True"),
    ("extract", lambda doc: doc.update(
        patterns=[{"target": 1, "selections": {}, "class": [1]}]),
     _stored_line("patterns")),
    # a second spelling of a server key never replaces the first
    ("extract", lambda doc: _shadow(doc["queries"], _NO_ROWS),
     "error: server key '01' is not a plain decimal"),
    ("simulate", _shadow_k3_scheme,
     "error: server key '01' is not a plain decimal"),
    ("simulate", lambda doc: _shadow(doc["rows"][0]["q"], None),
     "error: server key '01' is not a plain decimal"),
], ids=["scheme-theta", "scheme-term", "prob-theta", "prob-pair",
        "theta-float", "edge-float", "theta-str", "theta-bool", "L-float",
        "selection-float", "term-bool", "combo-float", "prob-theta-float",
        "combo-sign", "pattern-servers-repeat", "graph-list", "queries-list",
        "q-list", "target-beyond-l", "p-float", "p-bool", "class-list",
        "queries-shadow-extract", "queries-shadow-simulate", "q-shadow"])
def test_malformed_values_exit_2(capsys, tmp_path, command, edit, message):
    if command == "extract":
        path, doc = tmp_path / "k3.json", load_json("k3_scheme.json")
    else:
        path, doc = _k3_prob_doc(capsys, tmp_path)
    edit(doc)
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, command, "--scheme", str(path))
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == message


@pytest.mark.parametrize("argv,text,kind", [
    (["simulate", "--scheme", "{path}"], "5", "int"),
    (["extract", "--scheme", "{path}"], '"rows"', "str"),
    (["general", "--graph", "{path}", "--enumerate"], "[]", "list"),
    (["audit", "--family", "general:{path}", "--mode", "structural"], "[]",
     "list"),
], ids=["simulate-int", "extract-str", "general-list", "audit-list"])
def test_document_must_be_an_object(capsys, tmp_path, argv, text, kind):
    path = tmp_path / "doc.json"
    path.write_text(text)
    rc, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == \
        f"error: {path} holds a JSON {kind}, not an object"


def test_simulate_rejects_subfile_beyond_l(capsys, tmp_path):
    path, doc = tmp_path / "k3.json", load_json("k3_scheme.json")
    doc["queries"]["1"]["subfile"][0] = 7
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "simulate", "--scheme", str(path))
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == ("error: a row asks for subfile 7 of "
                                    "file 0, which storage does not hold")


@pytest.mark.parametrize("trials", [[], ["--trials", "5"]],
                         ids=["exact", "sample"])
def test_simulate_rejects_file_not_stored(capsys, tmp_path, trials):
    prob, doc = _k3_prob_doc(capsys, tmp_path)
    # file 9 does not exist on K3; with 5 trials the row might never be drawn
    doc["rows"][-1]["q"]["2"] = [[9, 1]]
    prob.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "simulate", "--scheme", str(prob),
                           "--seed", "1", *trials)
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == \
        f"error: row {len(doc['rows']) - 1} asks server 2 for file 9, " \
        f"which it does not store"


def test_simulate_rejects_idle_pattern_server(capsys, tmp_path):
    prob, doc = _k3_prob_doc(capsys, tmp_path)
    row = doc["rows"][0]
    row["q"][str(row["pattern_servers"][0])] = None
    prob.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "simulate", "--scheme", str(prob))
    assert rc == 2
    assert _one_line_error(err) == \
        "error: row 0 recovers through a server it leaves idle"


def test_internal_error_exit_4(capsys, monkeypatch):
    def broken(n, theta):
        raise InternalConsistencyError("negative gamma supply")

    monkeypatch.setattr("pirlab.cli.build_scheme", broken)
    rc, out, err = run_cli(capsys, "build", "--n", "4")
    assert rc == 4
    assert out == ""
    assert _one_line_error(err) == \
        "error: internal self-check failed: negative gamma supply"


# ============================================================
# audit
# ============================================================

def test_audit_structural(capsys):
    rc, out, _ = run_cli(capsys, "audit", "--family", "k4",
                         "--mode", "structural")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["mode"] == "structural"


def test_audit_distributional_transform(capsys):
    rc, out, _ = run_cli(capsys, "audit", "--family", "transform:k3",
                         "--mode", "distributional")
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_audit_distributional_general(capsys):
    rc, out, _ = run_cli(capsys, "audit", "--family", "general:star:4",
                         "--mode", "distributional")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["max_deviation"] == 0


def test_audit_statistical_general(capsys):
    rc, out, _ = run_cli(capsys, "audit", "--family",
                         "general:edges:1-2,1-3,2-3,1-4",
                         "--mode", "statistical", "--trials", "2000",
                         "--seed", "7")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert float(doc["max_deviation"]) < float(doc["epsilon"])


def test_audit_statistical_negative_trials(capsys):
    rc, out, err = run_cli(capsys, "audit", "--family", "general:star:3",
                           "--mode", "statistical", "--trials", "-5",
                           "--seed", "1")
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == \
        "error: trials must be a positive integer, got -5"


@pytest.mark.parametrize("family,mode", [
    ("general:{edgeless}", "statistical"),
    ("general:{edgeless}", "distributional"),
    ("k0", "structural"),
])
def test_audit_empty_family(capsys, tmp_path, family, mode):
    edgeless = tmp_path / "edgeless.json"
    edgeless.write_text(json.dumps({"n": 3, "edges": []}))
    rc, out, err = run_cli(capsys, "audit",
                           "--family", family.format(edgeless=edgeless),
                           "--mode", mode, "--trials", "10", "--seed", "1")
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == \
        "error: the audit family has no desired files"


def test_structural_audit_size_cap(capsys, monkeypatch):
    # the edge: K6 is audited, K7 is refused before any member is built
    rc, out, _ = run_cli(capsys, "audit", "--family",
                         f"k{cli.STRUCTURAL_AUDIT_CAP}", "--mode",
                         "structural")
    assert rc == 0 and json.loads(out)["ok"] is True

    def no_build(*args):
        raise AssertionError("a scheme was built before the size check")
    monkeypatch.setattr(cli, "build_scheme", no_build)
    rc, out, err = run_cli(capsys, "audit", "--family",
                           f"k{cli.STRUCTURAL_AUDIT_CAP + 1}", "--mode",
                           "structural")
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == (
        "error: a structural audit keeps all 21 K7 schemes alive and is "
        "capped at n = 6")


def test_audit_bad_family(capsys):
    rc, _, err = run_cli(capsys, "audit", "--family", "wheel:5",
                         "--mode", "structural")
    assert rc == 2
    assert err


_STATISTICAL = ["--mode", "statistical", "--trials", "5", "--seed", "1"]


@pytest.mark.parametrize("family,mode,message", [
    ("transform:k7", "structural",
     "error: a structural audit reads DeterministicScheme members, got a "
     "ProbabilisticScheme"),
    ("k7", "statistical",
     "error: a statistical audit reads Graph members, got a "
     "DeterministicScheme"),
    ("k7", "exact", "error: unknown audit mode 'exact'"),
])
def test_audit_refuses_the_mode_before_building(capsys, monkeypatch, family,
                                                mode, message):
    def no_build(*args):
        raise AssertionError("a scheme was built before the mode check")
    monkeypatch.setattr(cli, "build_scheme", no_build)
    rc, out, err = run_cli(capsys, "audit", "--family", family,
                           "--mode", mode, "--trials", "5", "--seed", "1")
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == message


@pytest.mark.parametrize("argv,message", [
    # an audit mode reads one kind of family member
    (["audit", "--family", "k3", *_STATISTICAL],
     "error: a statistical audit reads Graph members, got a "
     "DeterministicScheme"),
    (["audit", "--family", "k3", "--mode", "distributional"],
     "error: a distributional audit reads ProbabilisticScheme or "
     "GeneralScheme or Graph members, got a DeterministicScheme"),
    (["audit", "--family", "transform:k3", "--mode", "structural"],
     "error: a structural audit reads DeterministicScheme members, got a "
     "ProbabilisticScheme"),
    (["audit", "--family", "general:star:3", "--mode", "structural"],
     "error: a structural audit reads DeterministicScheme members, got a "
     "Graph"),
    # a threshold that no deviation can meet, or one that is not JSON
    (["audit", "--family", "general:star:3", *_STATISTICAL,
      "--epsilon", "nan"],
     "error: epsilon must be a finite number > 0, got nan"),
    (["audit", "--family", "general:star:3", *_STATISTICAL,
      "--epsilon", "-1"],
     "error: epsilon must be a finite number > 0, got -1.0"),
    (["audit", "--family", "general:star:3", *_STATISTICAL,
      "--epsilon", "1e999"],
     "error: epsilon must be a finite number > 0, got inf"),
    # one symbol per file gives a trial that cannot fail
    (["simulate", "--scheme", "{det}", "--q", "0"],
     "error: alphabet size q must be an integer >= 2, got 0"),
    (["simulate", "--scheme", "{prob}", "--q", "-3"],
     "error: alphabet size q must be an integer >= 2, got -3"),
    (["simulate", "--scheme", "{det}", "--q", "1"],
     "error: alphabet size q must be an integer >= 2, got 1"),
    (["simulate", "--scheme", "{prob}", "--q", "1"],
     "error: alphabet size q must be an integer >= 2, got 1"),
    (["build", "--n", "3", "--theta", "7"],
     "error: theta 7 is not a file id (0..2)"),
    # graph specs, theta specs and family parameters
    (["general", "--graph", "edges:1-x", "--enumerate"],
     "error: bad edge token '1-x'"),
    (["general", "--graph", "edges:", "--enumerate"],
     "error: bad edge token ''"),
    (["general", "--graph", "star:x", "--enumerate"],
     "error: bad family parameters 'x'"),
    (["general", "--graph", "complete:3", "--theta", "x", "--seed", "1"],
     "error: bad theta 'x'"),
    (["general", "--graph", "complete:3", "--theta", "1,x", "--seed", "1"],
     "error: bad theta '1,x'"),
    (["general", "--graph", "complete:1", "--enumerate"],
     "error: complete graph needs n >= 2"),
    (["general", "--graph", "star:0", "--enumerate"],
     "error: star needs at least one leaf"),
    (["general", "--graph", "cycle:2", "--enumerate"],
     "error: cycle needs n >= 3"),
    (["general", "--graph", "path:1", "--enumerate"],
     "error: path needs n >= 2"),
    (["general", "--graph", "complete_bipartite:0,3", "--enumerate"],
     "error: complete_bipartite needs positive part sizes"),
    (["general", "--graph", "complete_bipartite:3", "--enumerate"],
     "error: complete_bipartite expects 2 parameter(s), got [3]"),
    # refused from the parameters, before any edge is made
    (["general", "--graph", "complete:100000", "--enumerate"],
     "error: graphs are capped at 10001 vertices and 10000 files, got "
     "100000 and 4999950000"),
    (["general", "--graph", "complete:3", "--r", "100000000", "--enumerate"],
     "error: graphs are capped at 10001 vertices and 10000 files, got 3 "
     "and 300000000"),
], ids=["k3-statistical", "k3-distributional", "transform-structural",
        "general-structural", "epsilon-nan", "epsilon-negative",
        "epsilon-inf", "det-q0", "prob-q-3", "det-q1", "prob-q1",
        "build-theta", "edge-token", "edges-empty", "family-param",
        "theta-str", "theta-pair", "complete-1", "star-0", "cycle-2",
        "path-1", "bipartite-0", "bipartite-arity", "graph-cap",
        "replication-cap"])
def test_bad_flags_exit_2(capsys, tmp_path, argv, message):
    prob, _doc = _k3_prob_doc(capsys, tmp_path)
    det = FIXTURES / "k3_scheme.json"
    rc, out, err = run_cli(capsys, *(a.format(det=det, prob=prob)
                                     for a in argv))
    assert rc == 2
    assert out == ""
    assert _one_line_error(err) == message


def test_unreadable_documents_exit_2(capsys, tmp_path):
    missing, bad = tmp_path / "missing.json", tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (missing, tmp_path):
        rc, out, err = run_cli(capsys, "extract", "--scheme", str(path))
        assert (rc, out) == (2, "")
        assert _one_line_error(err).startswith(f"error: cannot read {path}: ")
    rc, out, err = run_cli(capsys, "extract", "--scheme", str(bad))
    assert (rc, out) == (2, "")
    assert _one_line_error(err) == (
        f"error: {bad} is not valid JSON: Expecting property name enclosed "
        f"in double quotes: line 1 column 2 (char 1)")


def test_simulate_refuses_a_general_document(capsys, tmp_path):
    doc = tmp_path / "general.json"
    assert run_cli(capsys, "general", "--graph", "complete:3", "--theta", "0",
                   "--seed", "1", "--out", str(doc))[0] == 0
    rc, out, err = run_cli(capsys, "simulate", "--scheme", str(doc))
    assert (rc, out) == (2, "")
    assert _one_line_error(err) == (
        "error: randomized single-symbol schemes are audited with "
        "`pirlab audit --family general:...`")


# ============================================================
# document format
# ============================================================

@pytest.mark.parametrize("argv", [
    ["sequences", "--n", "4"],
    ["build", "--n", "3"],
    ["extract", "--scheme", "{det}"],
    ["transform", "--scheme", "{det}"],
    ["general", "--graph", "complete:3", "--theta", "0", "--seed", "5"],
    ["simulate", "--scheme", "{prob}", "--trials", "20", "--seed", "1"],
    ["audit", "--family", "general:complete:3", "--mode", "statistical",
     "--trials", "200", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_documents_are_compact_json(capsys, tmp_path, argv):
    det, prob = tmp_path / "k3.json", tmp_path / "k3_prob.json"
    assert run_cli(capsys, "build", "--n", "3", "--out", str(det))[0] == 0
    assert run_cli(capsys, "transform", "--scheme", str(det),
                   "--out", str(prob))[0] == 0
    rc, out, _ = run_cli(capsys, *(a.format(det=det, prob=prob)
                                   for a in argv))
    assert rc == 0
    assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"


@pytest.mark.parametrize("target", ["missing/x.json", ""],
                         ids=["missing-directory", "a-directory"])
def test_out_that_cannot_be_written(capsys, tmp_path, target):
    path = tmp_path / target
    rc, out, err = run_cli(capsys, "sequences", "--n", "4",
                           "--out", str(path))
    assert rc == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith(f"error: cannot write {path}: ")


# ============================================================
# process-level smoke test
# ============================================================

def test_module_entry_point():
    # `python -m` imports from its working directory first, so the child
    # runs the same pirlab package as this process
    package_root = pathlib.Path(pirlab.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-m", "pirlab", "sequences",
                           "--n", "3"], capture_output=True, text=True,
                          cwd=package_root)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["L"] == 6


def test_unknown_subcommand(capsys):
    rc, _, _ = run_cli(capsys, "frobnicate")
    assert rc == 2
