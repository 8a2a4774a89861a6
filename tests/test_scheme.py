"""Scheme data model: term validation, the deterministic document (v2
columns read, the v1 layout and stored annotations refused), and
probabilistic row checks."""

import json
import os
import pathlib
import subprocess
import sys
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

import pirlab
from pirlab.builder import build_scheme
from pirlab.errors import ParameterError
from pirlab.general import GeneralScheme
from pirlab.graphs import Graph, make_graph
from pirlab.render import canonical_json
from pirlab.scheme import (DeterministicScheme, ProbabilisticScheme, ProbRow,
                           Summation)
from pirlab.sim import Storage
from pirlab.transform import transform

from conftest import load_json
from reference_scheme import v1_document, v1_rows_as_columns, v2_document
from relabel import relabel


def _reference_terms(terms):
    """The term checks one term at a time, in input order."""
    norm = []
    for term in terms:
        if len(term) != 3:
            raise ParameterError(f"term {list(term)} is not "
                                 f"[file, subfile, sign]")
        f, s, sign = term
        # a bool is not an integer entry: True would pass for 1
        if not (type(f) is int and f >= 0):
            raise ParameterError(f"bad file id in term {term}")
        if not (type(s) is int and s >= 1):
            raise ParameterError(f"bad subfile index in term {term}")
        if not (type(sign) is int and sign in (1, -1)):
            raise ParameterError(f"bad sign in term {term}")
        norm.append((f, s, sign))
    return tuple(sorted(norm))


# each position is mostly valid, so a list often holds one bad term
_term = st.tuples(st.sampled_from([0, 2, 5, 5, -1, True, "0"]),
                  st.sampled_from([1, 3, 3, 0, 2.0]),
                  st.sampled_from([1, -1, -1, 0, 2, True])) \
    | st.lists(st.integers(0, 6), max_size=4).map(tuple) \
    | st.lists(st.integers(0, 6), min_size=3, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(_term, max_size=4))
@example([(1, 1, 0)])
@example([(0, 1, 1), (2, 1)])
@example([(0, 1, 1), [0, 2, 1]])
@example([(True, 1, 1), (0, 1, True)])
def test_summation_matches_term_by_term_checks(terms):
    try:
        want = _reference_terms(terms)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as got:
            Summation(tuple(terms))
        assert str(got.value) == str(exc)
    else:
        got = Summation(tuple(terms)).terms
        assert got == want
        assert all(type(t) is tuple for t in got)


# each row is one server's row; a value is mostly valid, and the rows
# come in any order, so a row's terms are often out of order
_rows_term = st.tuples(st.sampled_from([0, 2, 5, 5, 1, -1, True, 1.5, "0"]),
                       st.sampled_from([1, 3, 3, 2, 0, 2.0, True]),
                       st.sampled_from([1, -1, -1, 1, 0, 2, True, -1.0]))
_rows = st.lists(st.lists(_rows_term | st.lists(st.integers(0, 6),
                                                max_size=4).map(tuple),
                          max_size=4), max_size=3)


def _per_row(rows):
    """Each row's terms through Summation, or the first refusal's text."""
    try:
        return [Summation(tuple(row)).terms for row in rows]
    except ParameterError as exc:
        return str(exc)


def _read_rows(doc):
    try:
        scheme = DeterministicScheme.from_json(doc)
    except ParameterError as exc:
        return str(exc)
    return [row.terms for row in scheme.queries[1]]


def _k3_doc(queries):
    return {"graph": make_graph("complete", [3]).to_json(), "theta": 0,
            "L": 1, "queries": {"1": queries}}


@settings(max_examples=300, deadline=None)
@given(_rows)
@example([[(2, 1, 1), (0, 1, 1)], [(0, 2, 1), (0, 1, True)]])
@example([[(5, 1, 1)], [(0, 0, 1), (1.5, 1, 1)]])
@example([[(0, 1, 1), (0, 1)]])
def test_block_and_summation_share_one_term_check(rows):
    # when every term has three entries, the v2 columns of the rows read as
    # the rows through Summation do: the same terms in order, or the same
    # first refusal
    want = _per_row(rows)
    if all(len(t) == 3 for row in rows for t in row):
        terms = [t for row in rows for t in row]
        v2 = _k3_doc({"file": [t[0] for t in terms],
                      "subfile": [t[1] for t in terms],
                      "sign": [t[2] for t in terms],
                      "ends": [*accumulate(map(len, rows))]})
        assert _read_rows(v2) == want


_NO_SUMMATION_PROBE = """
import json, random, sys
from pirlab import cli, patterns, rows, scheme
from pirlab.builder import build_scheme, verify_scheme
from pirlab.patterns import check_srp, extract_patterns
from pirlab.render import canonical_json
from pirlab.sim import random_storage, run_deterministic_trial
from pirlab.transform import entropy_proxy_ok, transform

made = []
def counting_new(cls, *args):
    made.append(cls)
    return tuple.__new__(cls, args)
scheme.Summation.__new__ = staticmethod(counting_new)
patterns.RecoveryPattern.__new__ = staticmethod(counting_new)
# a row read from a checked block is made unchecked, by rows._summation
rows._summation = lambda terms: counting_new(scheme.Summation, terms)

def count(step):
    before = len(made)
    step()
    return len(made) - before

def library_pass():
    s = build_scheme(5, 3)
    assert verify_scheme(s).ok
    ex = extract_patterns(s)
    assert check_srp(s, ex).ok and entropy_proxy_ok(s)
    transform(s, ex)
    doc = json.loads(canonical_json(s.to_json()))
    assert scheme.DeterministicScheme.from_json(doc) == s
    storage = random_storage(s.graph, 2, s.L, random.Random(1))
    assert run_deterministic_trial(s, storage).ok

path = sys.argv[1]
counts = {"library": count(library_pass),
          "build": count(lambda: cli.main(["build", "--n", "5", "--theta",
                                           "3", "--out", path]))}
for argv in (["extract"], ["transform"], ["simulate", "--seed", "1"]):
    counts[argv[0]] = count(lambda: cli.main(
        [argv[0], "--scheme", path, *argv[1:], "--out", path + ".out"]))
# the probe sees both ways a Summation is made, and the patterns view
counts["probe"] = count(lambda: (scheme.Summation(((0, 1, 1),)),
                                 next(iter(build_scheme(3).queries[1]))))
counts["pattern probe"] = count(lambda: build_scheme(3).patterns)
print(json.dumps(counts))
"""


def test_k5_pass_and_v2_commands_make_no_summation(tmp_path):
    # Summation.__new__, rows._summation and RecoveryPattern.__new__ are
    # replaced in a child process, which cannot leave them replaced for
    # other tests
    src = pathlib.Path(pirlab.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SUMMATION_PROBE, str(tmp_path / "k5.json")],
        capture_output=True, text=True, env={**os.environ,
                                             "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "library": 0, "build": 0, "extract": 0, "transform": 0,
        "simulate": 0, "probe": 2, "pattern probe": 6}


_NO_PATTERN_PROBE = """
import json
from pirlab import patterns
from pirlab.builder import build_scheme
from pirlab.patterns import extract_patterns

made = []
def counting_new(cls, *args):
    made.append(cls)
    return tuple.__new__(cls, args)
patterns.RecoveryPattern.__new__ = staticmethod(counting_new)

def count(step):
    before = len(made)
    step()
    return len(made) - before

counts = {f"k6 theta={theta}": count(lambda: build_scheme(6, theta))
          for theta in (0, 14)}
# the analysis makes none; the first read of the patterns view makes
# them, and a second read gives the kept ones
s = build_scheme(3)
counts["analysis"] = count(lambda: extract_patterns(s))
ex = extract_patterns(s)
counts["first read"] = count(lambda: ex.patterns)
counts["second read"] = count(lambda: ex.patterns)
print(json.dumps(counts))
"""


def test_k6_build_makes_no_recovery_pattern():
    # a scheme is its rows, and its analysis is columns: patterns are
    # made only by the first read of the patterns view
    src = pathlib.Path(pirlab.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_PATTERN_PROBE], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"k6 theta=0": 0, "k6 theta=14": 0,
                                       "analysis": 0, "first read": 6,
                                       "second read": 0}


def _k3_rows(**second):
    graph = make_graph("complete", [3])  # files 0=(1,2), 1=(1,3), 2=(2,3)
    rows = [ProbRow(mass=1, q={1: ((0, 1),), 2: ((0, 1),), 3: None},
                    pattern_servers=(1,)),
            ProbRow(mass=1, q={1: None, 2: ((2, 1),), 3: ((2, 1),),
                               **second.get("q", {})},
                    pattern_servers=second.get("servers", (2,)))]
    return graph, rows


def test_probabilistic_rows_accept_stored_files():
    graph, rows = _k3_rows()
    assert len(ProbabilisticScheme(graph, 0, rows, 2).rows) == 2


@pytest.mark.parametrize("second,message", [
    ({"q": {3: ((0, 1),)}}, "row 1 asks server 3 for file 0, which it "
                            "does not store"),
    ({"q": {4: ((2, 1),)}}, "a row queries server 4, which is not in the "
                            "graph"),
    ({"servers": (1,)}, "row 1 recovers through a server it leaves idle"),
    ({"servers": (2, 2)}, "pattern servers [2, 2] name a server twice"),
    ({"servers": (2, 99)}, "row 1 recovers through server 99, which is "
                           "not in the graph"),
], ids=["file", "server", "idle", "repeat", "pattern-server"])
def test_probabilistic_rows_reject(second, message):
    with pytest.raises(ParameterError) as exc:
        graph, rows = _k3_rows(**second)
        ProbabilisticScheme(graph, 0, rows, 2)
    assert str(exc.value) == message


# ============================================================
# deterministic documents: the v2 columns, the v1 rows refused
# ============================================================

@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_both_layouts_read_as_the_built_scheme(n):
    # the v2 document reads as the scheme and writes the same bytes; the
    # v1 document is refused, and its rows put into columns read as the
    # scheme too
    for theta in range(n * (n - 1) // 2):
        scheme = build_scheme(n, theta)
        v1 = json.loads(canonical_json(v1_document(scheme)))
        v2 = canonical_json(scheme.to_json())
        from_v2 = DeterministicScheme.from_json(json.loads(v2))
        assert from_v2 == scheme, theta
        assert canonical_json(from_v2.to_json()) == v2
        with pytest.raises(ParameterError, match="v1 layout"):
            DeterministicScheme.from_json(v1)
        assert DeterministicScheme.from_json(v1_rows_as_columns(v1)) == \
            scheme


_V1_LINE = ("scheme document holds the v1 layout, an array of rows per "
            "server; pirlab reads pirlab/build/v2 columns")


def _stored_line(stored):
    return (f"scheme document stores {stored}; a pirlab/build/v2 document "
            f"holds its rows alone")


def _side_info_only(scheme):
    doc = v2_document(scheme)
    del doc["patterns"]
    return doc


@pytest.mark.parametrize("write,message", [
    (v1_document, _V1_LINE),
    (v2_document, _stored_line("patterns and side_info")),
    (_side_info_only, _stored_line("side_info")),
], ids=["v1", "patterns", "side-info"])
def test_from_json_refuses_v1_and_stored_annotations(write, message):
    # stored patterns and side information that do follow from the rows
    # are refused too: a scheme document is its rows
    doc = json.loads(canonical_json(write(build_scheme(3, 1))))
    with pytest.raises(ParameterError) as exc:
        DeterministicScheme.from_json(doc)
    assert str(exc.value) == message


def test_v2_columns_hold_no_array_per_term_or_row():
    doc = json.loads(canonical_json(build_scheme(4, 2).to_json()))
    assert list(doc) == ["graph", "theta", "L", "queries"]
    for cols in doc["queries"].values():
        for name, column in cols.items():
            assert all(type(v) is int for v in column), name


@pytest.mark.parametrize("layout", [v1_document,
                                    DeterministicScheme.to_json])
def test_schemes_without_pattern_annotations_round_trip(layout, k3_scheme,
                                                        star4_scheme):
    # schemes build_scheme does not give: the v1 writer stores their
    # extracted patterns without a step or class, to_json stores none, and
    # the rows of either document read back as the scheme
    for scheme in (k3_scheme, star4_scheme):
        doc = json.loads(canonical_json(layout(scheme)))
        assert all(set(p) == {"target", "selections"}
                   for p in doc.get("patterns", ()))
        if layout is v1_document:
            doc = v1_rows_as_columns(doc)
        assert DeterministicScheme.from_json(doc) == scheme


def _k3_prob_doc():
    graph, rows = _k3_rows()
    return ProbabilisticScheme(graph, 0, rows, 2).to_json()


# ============================================================
# probabilistic schemes in canonical form
# ============================================================

@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_probabilistic_round_trip_at_every_theta(n):
    base = build_scheme(n, 0)
    for theta in base.graph.files:
        p = transform(relabel(base, theta))
        assert ProbabilisticScheme.from_json(p.to_json()) == p, theta
        assert {type(row.mass) for row in p.rows} == {int}


def _scaled(p, k):
    return ProbabilisticScheme(
        p.graph, p.theta,
        [row._replace(mass=k * row.mass) for row in p.rows],
        k * p.denominator)


def test_scaled_masses_are_the_same_scheme(k3_scheme):
    p = transform(k3_scheme)
    assert p.denominator == 6
    assert _scaled(p, 7) == p


def test_split_row_survives_the_round_trip(k3_scheme):
    # row 0 in thirds, a zero-mass row after it: D triples, and the
    # round trip reads the same scheme back from the reduced "p" strings
    p = transform(k3_scheme)
    first, *rest = p.rows
    dead = ProbRow(mass=0, q={srv: None for srv in p.graph.servers})
    split = ProbabilisticScheme(
        p.graph, p.theta,
        [first, first._replace(mass=2 * first.mass), dead,
         *(row._replace(mass=3 * row.mass) for row in rest)],
        3 * p.denominator)
    assert split.denominator == 18
    assert [doc["p"] for doc in split.to_json()["rows"][:3]] == \
        ["1/18", "1/9", "0"]
    assert ProbabilisticScheme.from_json(split.to_json()) == split


@pytest.mark.parametrize("masses,den,message", [
    ((0, 0), 2, "row probabilities sum to 0, not 1"),
    ((1, 1), 0, "denominator must be >= 1, got 0"),
    ((1, 1), -2, "denominator must be >= 1, got -2"),
    ((1, 1), 2.0, "denominator must be an integer, got 2.0"),
], ids=["all-zero", "zero-denominator", "negative-denominator",
        "float-denominator"])
def test_probabilistic_scheme_refuses_masses(masses, den, message):
    graph, rows = _k3_rows()
    rows = [row._replace(mass=m) for row, m in zip(rows, masses)]
    with pytest.raises(ParameterError) as exc:
        ProbabilisticScheme(graph, 0, rows, den)
    assert str(exc.value) == message


@pytest.mark.parametrize("mass", [0.1, True, "1"])
def test_prob_row_mass_is_an_integer(mass):
    with pytest.raises(ParameterError) as exc:
        ProbRow(mass=mass, q={})
    assert str(exc.value) == f"mass must be an integer, got {mass!r}"


@pytest.mark.parametrize("cls,doc,message", [
    (Graph, [], "malformed graph document: 'list' object has no attribute "
                "'get'"),
    (DeterministicScheme, {**load_json("k3_scheme.json"), "graph": []},
     "malformed graph document: 'list' object has no attribute 'get'"),
    (DeterministicScheme, {**load_json("k3_scheme.json"), "queries": []},
     "malformed scheme document: 'list' object has no attribute 'items'"),
    (ProbabilisticScheme, {**_k3_prob_doc(),
                           "rows": [{"p": "1", "q": []}]},
     "malformed probabilistic document: 'list' object has no attribute "
     "'items'"),
    (GeneralScheme, {"graph": []}, "malformed graph document: 'list' "
                                   "object has no attribute 'get'"),
], ids=["graph-list", "scheme-graph-list", "scheme-queries-list",
        "prob-q-list", "general-graph-list"])
def test_from_json_refuses_wrong_json_kind(cls, doc, message):
    with pytest.raises(ParameterError) as exc:
        cls.from_json(doc)
    assert str(exc.value) == message


def _k3(**fields):
    return DeterministicScheme(
        **{"graph": make_graph("complete", [3]), "theta": 0, "L": 1,
           "queries": {}, **fields})


@pytest.mark.parametrize("build,message", [
    (lambda: Graph(3, ((1, 2.9),)), "edge end must be an integer, got 2.9"),
    # p is read by the document mapping, which hands ProbRow a mass
    (lambda: ProbabilisticScheme.from_json(
        {**_k3_prob_doc(), "rows": [{"p": 0.1, "q": {}}]}),
     "p must be a fraction string or an integer, got 0.1"),
    (lambda: ProbabilisticScheme.from_json(
        {**_k3_prob_doc(), "rows": [{"p": True, "q": {}}]}),
     "p must be a fraction string or an integer, got True"),
    (lambda: GeneralScheme(make_graph("complete", [3]), theta=0, q=2,
                           mu=(True, 0, 0), lam=(0, 0, 0)),
     "mu bit must be an integer, got True"),
    (lambda: _k3(queries={9: ()}), "no server 9 in the graph"),
    (lambda: _k3(queries={1: ((0, 1, 1),)}),
     "queries must contain Summation rows"),
], ids=["edge-float", "p-float", "p-bool", "mu-bool",
        "queries-server", "queries-row"])
def test_constructors_refuse_what_documents_refuse(build, message):
    # from_json hands document values to these constructors, so a
    # document gets the same text (test_cli.py)
    with pytest.raises(ParameterError) as exc:
        build()
    assert str(exc.value) == message


def _validated_values():
    """A value of each type that checks its fields, one bad field for it,
    the constructor's text for that field, and a document holding the bad
    field for a type that reads documents (None for the others)."""
    k3 = load_json("k3_scheme.json")
    scheme = DeterministicScheme.from_json(k3)
    graph, prob = scheme.graph, transform(scheme)
    general = GeneralScheme(graph, 0, 2, (0, 1, 0), (1, 0, 0))
    return {
        "Graph": (graph, {"multigraph": 1},
                  "multigraph must be true or false, got 1",
                  {**graph.to_json(), "multigraph": 1}),
        "Summation": (Summation(((0, 1, 1),)), {"terms": ((0, 0, 1),)},
                      "bad subfile index in term (0, 0, 1)", None),
        "DeterministicScheme": (scheme, {"L": 0},
                                "subpacketization must be >= 1, got 0",
                                {**k3, "L": 0}),
        "ProbRow": (prob.rows[0], {"mass": 0.5},
                    "mass must be an integer, got 0.5", None),
        "ProbabilisticScheme": (prob, {"theta": 3},
                                "theta 3 is not a file id (0..2)",
                                {**prob.to_json(), "theta": 3}),
        "GeneralScheme": (general, {"q": 1}, "alphabet size q must be an "
                                             "integer >= 2, got 1",
                          {**general.to_json(), "q": 1}),
        "Storage": (Storage(graph, 2, 1, ((0,), (1,), (0,))), {"L": 2},
                    "every file must split into exactly 2 subfiles", None),
    }


@pytest.mark.parametrize("name", list(_validated_values()))
def test_a_bad_field_is_refused_however_the_value_is_made(name):
    # namedtuple's _replace makes a value through _make, which Checked
    # routes through the constructor, so no way around its checks is left
    value, bad, message, doc = _validated_values()[name]
    cls = type(value)
    assert cls.__name__ == name
    assert cls(**value._asdict()) == value
    makes = [lambda: cls(**{**value._asdict(), **bad}),
             lambda: value._replace(**bad),
             lambda: cls._make({**value._asdict(), **bad}.values())]
    if name == "DeterministicScheme":
        makes.append(lambda: value.replace(**bad))
    if doc is not None:
        makes.append(lambda: cls.from_json(doc))
    for make in makes:
        with pytest.raises(ParameterError) as exc:
            make()
        assert str(exc.value) == message


def test_import_leaves_dataclasses_and_inspect_out():
    # the value types are namedtuples, so importing the package or its
    # command line builds no dataclass and imports neither module; -S
    # keeps site's start-up imports out of the child
    src = pathlib.Path(pirlab.__file__).parents[1]
    probe = ("import sys, pirlab, pirlab.cli; print(sorted("
             "{'dataclasses', 'inspect'} & sys.modules.keys()))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
