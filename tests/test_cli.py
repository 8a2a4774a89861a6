"""Command line interface: subcommands, exit codes, determinism."""

import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import pirlab
from pirlab.bounds import BOUNDS_CAP
from pirlab.cli import main
from pirlab.errors import InternalConsistencyError

from conftest import FIXTURES, load_json


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
    monkeypatch.setenv("PIRLAB_PRECISION", "3")
    rc, out, _ = run_cli(capsys, "bounds", "--max", "3")
    assert rc == 0
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert data[1] == "3,0.500,0.500,1.500,1.500"


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


# ============================================================
# build / extract / transform
# ============================================================

def test_build_writes_scheme(capsys, tmp_path):
    out_file = tmp_path / "k4.json"
    rc, out, _ = run_cli(capsys, "build", "--n", "4", "--out", str(out_file))
    assert rc == 0
    assert out == ""
    doc = json.loads(out_file.read_text())
    assert doc["L"] == 84
    assert doc["theta"] == 0
    assert len(doc["patterns"]) == 84


def test_build_theta_edge_form_matches_file_id(capsys):
    rc1, out1, _ = run_cli(capsys, "build", "--n", "3", "--theta", "1,3")
    rc2, out2, _ = run_cli(capsys, "build", "--n", "3", "--theta", "1")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_build_over_cap(capsys):
    rc, _, err = run_cli(capsys, "build", "--n", "9")
    assert rc == 2
    assert err


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
    ("extract", lambda doc: doc["queries"]["1"][0].update(terms=[[0, 1]]),
     "error: term [0, 1] is not [file, subfile, sign]"),
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
    ("extract", lambda doc: doc.update(
        patterns=[{"target": 0, "selections": {"1": 0.2}}]),
     "error: pattern selection must be an integer, got 0.2"),
    ("extract", lambda doc: doc["queries"]["1"][0]["terms"][0].__setitem__(
        0, True), "error: bad file id in term (True, 1, 1)"),
    ("simulate", lambda doc: doc["rows"][0]["q"].update({"1": [[0.4, 1]]}),
     "error: combo file must be an integer, got 0.4"),
    ("simulate", lambda doc: doc.update(theta=0.9),
     "error: theta must be an integer, got 0.9"),
    # a combo sign is +1 or -1, as a summation term's is
    ("simulate", lambda doc: doc["rows"][0]["q"].update({"1": [[0, 7]]}),
     "error: bad sign in combo entry [0, 7] for server 1"),
], ids=["scheme-theta", "scheme-term", "prob-theta", "prob-pair",
        "theta-float", "edge-float", "theta-str", "theta-bool", "L-float",
        "selection-float", "term-bool", "combo-float", "prob-theta-float",
        "combo-sign"])
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


def test_audit_bad_family(capsys):
    rc, _, err = run_cli(capsys, "audit", "--family", "wheel:5",
                         "--mode", "structural")
    assert rc == 2
    assert err


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
