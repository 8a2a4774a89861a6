"""Randomized single-symbol scheme for arbitrary graphs: goldens and laws."""

import itertools
import json
import random
from fractions import Fraction as F

import pytest

from pirlab.bounds import multigraph_lower_bound
from pirlab.builder import build_scheme
from pirlab.errors import ParameterError, UnsupportedSizeError
from pirlab.general import (
    DISTRIBUTION_DEGREE_CAP,
    GeneralScheme,
    answer_distribution,
    answers,
    build_general_query,
    general_rate,
    random_general_scheme,
    reconstruct,
    sample_combo_counts,
)
from pirlab.graphs import Graph, make_graph
from pirlab.scheme import DeterministicScheme, ProbabilisticScheme
from pirlab.sim import random_storage


def _k3():
    return make_graph("complete", [3])


# ============================================================
# worked query vectors (pendant triangle, q = 257 keeps signs visible)
# ============================================================

def test_worked_vector_theta_a(pendant_triangle):
    s = build_general_query(pendant_triangle, theta=0,
                            mu=(1, 0, 1, 0), lam=(0, 1, 0, 1), q=257)
    assert s.queries == {
        1: ((0, 1),),
        2: ((2, 1),),
        3: ((2, -1),),
        4: (),
    }


def test_worked_vector_theta_c(pendant_triangle):
    s = build_general_query(pendant_triangle, theta=2,
                            mu=(1, 1, 0, 1), lam=(0, 0, 0, 1), q=257)
    assert s.queries == {
        1: ((0, 1), (1, 1), (3, -1)),
        2: ((0, -1),),
        3: ((1, -1), (2, -1)),
        4: ((3, 1),),
    }


def test_all_zero_randomness_column(pendant_triangle):
    s = build_general_query(pendant_triangle, theta=0,
                            mu=(0, 0, 0, 0), lam=(0, 0, 0, 0), q=257)
    assert s.queries == {1: (), 2: ((0, -1),), 3: (), 4: ()}


# ============================================================
# exhaustive reliability on K3
# ============================================================

def test_k3_exhaustive_recovery():
    g = _k3()
    q = 257
    contents = [17, 101, 233]
    for theta in range(3):
        for mu in itertools.product((0, 1), repeat=3):
            for lam in itertools.product((0, 1), repeat=3):
                s = build_general_query(g, theta, mu, lam, q=q)
                assert reconstruct(s, answers(s, contents)) == contents[theta]


def test_binary_field_recovery(pendant_triangle):
    rng = random.Random(7)
    contents = [1, 0, 1, 1]
    for theta in range(4):
        for _ in range(32):
            s = random_general_scheme(pendant_triangle, theta, rng, q=2)
            assert all(sign == 1 for qv in s.queries.values()
                       for _, sign in qv)
            assert reconstruct(s, answers(s, contents)) == contents[theta]


# ============================================================
# rates
# ============================================================

def test_rate_values(pendant_triangle):
    assert general_rate(_k3()) == F(4, 9)
    assert general_rate(Graph(2, ((1, 2),))) == 1
    assert general_rate(pendant_triangle) == F(8, 23)
    assert general_rate(_k3().extend(2)) == F(16, 45)
    assert F(16, 45) > F(1, 3)


def test_rate_matches_enumerated_nonempty_mass(pendant_triangle):
    total = sum(1 - answer_distribution(pendant_triangle, 0, srv)[()]
                for srv in range(1, 5))
    assert general_rate(pendant_triangle) == 1 / total


# ============================================================
# answer distributions: exact privacy
# ============================================================

@pytest.mark.parametrize("q", [2, 257])
def test_distribution_theta_invariant(pendant_triangle, q):
    for srv in range(1, 5):
        dists = [answer_distribution(pendant_triangle, theta, srv, q=q)
                 for theta in range(4)]
        for d in dists[1:]:
            assert d == dists[0]


def test_distribution_structure():
    d = answer_distribution(_k3(), 0, 1, q=2)
    # server 1 stores files 0 and 1; each appears independently w.p. 1/2
    assert d == {
        (): F(1, 4),
        ((0, 1),): F(1, 4),
        ((1, 1),): F(1, 4),
        ((0, 1), (1, 1)): F(1, 4),
    }
    d257 = answer_distribution(_k3(), 0, 1, q=257)
    assert d257[()] == F(1, 4)
    assert d257[((0, 1), (1, -1))] == F(1, 16)
    assert sum(d257.values()) == 1


def test_empty_probability_is_half_per_degree(pendant_triangle):
    for srv, deg in ((1, 3), (2, 2), (3, 2), (4, 1)):
        d = answer_distribution(pendant_triangle, 1, srv)
        assert d[()] == F(1, 2) ** deg


# ============================================================
# multigraph replication chain
# ============================================================

@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_replication_chain(n, r):
    g = make_graph("complete", [n])
    gr = g.extend(r) if r > 1 else g
    assert F(8, 9) / n <= F(1, n) <= general_rate(gr)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_replication_chain_prefix(n, r):
    assert multigraph_lower_bound(F(4, 3) / n, r) <= F(8, 9) / n


# ============================================================
# validation and caps
# ============================================================

def test_parameter_checks(pendant_triangle):
    with pytest.raises(ParameterError):
        build_general_query(pendant_triangle, 9, (0,) * 4, (0,) * 4)
    with pytest.raises(ParameterError):
        build_general_query(pendant_triangle, 0, (0, 1), (0,) * 4)
    with pytest.raises(ParameterError):
        build_general_query(pendant_triangle, 0, (0, 2, 0, 0), (0,) * 4)
    with pytest.raises(ParameterError):
        build_general_query(pendant_triangle, 0, (0,) * 4, (0,) * 4, q=1)


def test_distribution_degree_cap():
    at_cap = make_graph("star", [DISTRIBUTION_DEGREE_CAP])
    d = answer_distribution(at_cap, 0, 1)
    assert len(d) == 2 ** DISTRIBUTION_DEGREE_CAP == 4096
    assert sum(d.values()) == 1
    assert set(d.values()) == {F(1, 4096)}
    past_cap = make_graph("star", [DISTRIBUTION_DEGREE_CAP + 1])
    with pytest.raises(UnsupportedSizeError, match="degree 13 exceeds"):
        answer_distribution(past_cap, 0, 1)
    # the leaves stay within the cap
    assert answer_distribution(past_cap, 0, 2) == {(): F(1, 2),
                                                   ((0, 1),): F(1, 2)}


def test_json_round_trip(pendant_triangle):
    s = build_general_query(pendant_triangle, 2, (1, 1, 0, 1), (0, 0, 0, 1),
                            q=257)
    assert GeneralScheme.from_json(s.to_json()) == s


_K3_GENERAL = {"theta": 0, "q": 2, "mu": [0, 1, 0], "lam": [1, 0, 0],
               "queries": {"1": [[1, 1]], "2": [[0, 1]], "3": [[1, 1]]}}
_CONTRADICTS = "queries do not follow from the mu and lam bits"


@pytest.mark.parametrize("fields,message", [
    ({"theta": 99, "q": 1, "mu": [7], "queries": {"9": [[5, 1]]}},
     "theta 99 is not a file id (0..2)"),
    ({"theta": 3}, "theta 3 is not a file id (0..2)"),
    ({"q": 1}, "alphabet size q must be an integer >= 2, got 1"),
    ({"mu": [0, 1]}, "mu must carry one bit per file (3), got 2"),
    ({"lam": [1, 0, 2]}, "lam entries must be 0 or 1"),
    ({"queries": {"9": [[0, 1]]}}, _CONTRADICTS),
    # the queries this fixture held while nothing checked them
    ({"queries": {"1": [[0, 1]], "2": [], "3": [[2, 1]]}}, _CONTRADICTS),
], ids=["all", "theta", "q", "mu-length", "lam-bit", "server",
        "contradiction"])
def test_general_scheme_checks_its_fields(fields, message):
    doc = {"graph": _k3().to_json(), **_K3_GENERAL, **fields}
    with pytest.raises(ParameterError) as exc:
        GeneralScheme.from_json(doc)
    assert str(exc.value) == message
    if message != _CONTRADICTS:  # the constructor takes no queries
        with pytest.raises(ParameterError) as exc:
            GeneralScheme(_k3(), theta=doc["theta"], q=doc["q"],
                          mu=tuple(doc["mu"]), lam=tuple(doc["lam"]))
        assert str(exc.value) == message
    assert GeneralScheme.from_json({"graph": _k3().to_json(), **_K3_GENERAL})


def test_a_scheme_is_its_bits():
    assert GeneralScheme._fields == ("graph", "theta", "q", "mu", "lam")
    # the seed-1 K3 draw with its queries emptied would read 0 for a 1
    doc = random_general_scheme(_k3(), 0, random.Random(1)).to_json()
    for queries in ({"1": [], "2": [], "3": []},
                    {k: v for k, v in doc["queries"].items() if k != "3"},
                    {**doc["queries"], "9": []}):
        with pytest.raises(ParameterError) as exc:
            GeneralScheme.from_json({**doc, "queries": queries})
        assert str(exc.value) == _CONTRADICTS
    with pytest.raises(ParameterError, match="^combo sign must be an "
                                             "integer, got True$"):
        GeneralScheme.from_json({**doc, "queries": {
            v: [[f, True] for f, _ in combo]
            for v, combo in doc["queries"].items()}})


@pytest.mark.parametrize("spec", [
    ("edges", [(1, 2), (1, 3), (2, 3), (1, 4)]), ("complete", [5]),
    ("star", [8]), ("cycle", [6])])
@pytest.mark.parametrize("q", [2, 257])
def test_drawn_schemes_round_trip(spec, q):
    family, params = spec
    graph = Graph(4, tuple(params)) if family == "edges" \
        else make_graph(family, params)
    rng = random.Random(q)
    for theta in graph.files:
        s = random_general_scheme(graph, theta, rng, q=q)
        # through the text, as the CLI reads it
        doc = json.loads(json.dumps(s.to_json()))
        assert GeneralScheme.from_json(doc) == s
        assert GeneralScheme.from_json(doc).queries == s.queries


def test_every_bit_choice_recovers_on_the_pendant_triangle(pendant_triangle):
    contents = [17, 101, 233, 5]
    bits = list(itertools.product((0, 1), repeat=4))
    for q in (2, 257):
        symbols = [c % q for c in contents]
        for theta, mu, lam in itertools.product(range(4), bits, bits):
            s = build_general_query(pendant_triangle, theta, mu, lam, q=q)
            assert reconstruct(s, answers(s, symbols)) == symbols[theta]


def test_checks_share_one_text_per_rule():
    k3 = _k3()
    for call in (lambda: answer_distribution(k3, 3, 1),
                 lambda: sample_combo_counts(k3, 3, 10, random.Random(1)),
                 lambda: build_general_query(k3, 3, (0,) * 3, (0,) * 3),
                 lambda: build_scheme(3, 3),
                 lambda: DeterministicScheme(k3, theta=3, L=1, queries={}),
                 lambda: ProbabilisticScheme(k3, theta=3, rows=(),
                                             denominator=1)):
        with pytest.raises(ParameterError,
                           match=r"^theta 3 is not a file id \(0\.\.2\)$"):
            call()
    for call in (lambda: answer_distribution(k3, 0, 1, q=1),
                 lambda: sample_combo_counts(k3, 0, 10, random.Random(1),
                                             q=1),
                 lambda: build_general_query(k3, 0, (0,) * 3, (0,) * 3,
                                             q=1),
                 lambda: random_storage(k3, 1, 6, random.Random(1))):
        with pytest.raises(ParameterError, match=r"^alphabet size q must "
                                                 r"be an integer >= 2, "
                                                 r"got 1$"):
            call()


@pytest.mark.parametrize("theta", [1.0, 1.5, "1", True])
def test_theta_must_be_an_int(theta):
    star = make_graph("star", [4])
    for call in (lambda: answer_distribution(star, theta, 1),
                 lambda: build_scheme(4, theta),
                 lambda: DeterministicScheme(star, theta=theta, L=1,
                                             queries={})):
        with pytest.raises(ParameterError) as exc:
            call()
        assert str(exc.value) == f"theta must be an integer, got {theta!r}"
