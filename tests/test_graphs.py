"""Graph core: families, JSON round-trips, exact matching number."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pirlab.graphs import (GRAPH_FILE_CAP, GRAPH_VERTEX_CAP, Graph,
                           make_graph, matching_number)
from pirlab.errors import ParameterError, UnsupportedSizeError


# ============================================================
# construction and families
# ============================================================

def test_complete_graph_edge_order():
    g = make_graph("complete", [4])
    assert g.n == 4
    assert g.edges == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert not g.multigraph


def test_file_id_first_copy_wins_on_multigraph():
    g = Graph(3, ((1, 2), (1, 2), (2, 3)), multigraph=True).extend(2)
    assert g.edges == ((1, 2),) * 4 + ((2, 3),) * 2
    assert g.file_id(2, 1) == 0
    assert g.file_id(3, 2) == 4


def test_file_id_missing_edge_raises():
    g = make_graph("path", [3])
    with pytest.raises(ParameterError):
        g.file_id(1, 3)


def test_file_id_index_leaves_value_semantics_alone():
    g = make_graph("complete", [4])
    twin = make_graph("complete", [4])
    before = (hash(g), repr(g), g.to_json())
    assert g.file_id(4, 2) == 4
    assert (hash(g), repr(g), g.to_json()) == before
    assert g == twin and hash(g) == hash(twin)


def test_star_has_center_plus_leaves():
    g = make_graph("star", [4])
    assert g.n == 5
    assert g.edges == ((1, 2), (1, 3), (1, 4), (1, 5))
    assert g.degree(1) == 4
    assert g.max_degree() == 4


def test_cycle_and_path():
    c = make_graph("cycle", [5])
    assert c.n == 5 and len(c.edges) == 5
    assert all(c.degree(v) == 2 for v in range(1, 6))
    p = make_graph("path", [3])
    assert p.edges == ((1, 2), (2, 3))


def test_complete_bipartite_parts():
    g = make_graph("complete_bipartite", [2, 2])
    assert g.n == 4
    # part {1,2} vs part {3,4}
    assert g.edges == ((1, 3), (1, 4), (2, 3), (2, 4))


def test_edge_validation():
    with pytest.raises(ParameterError):
        Graph(3, ((1, 1),))
    with pytest.raises(ParameterError):
        Graph(3, ((2, 1),))
    with pytest.raises(ParameterError):
        Graph(3, ((1, 4),))
    with pytest.raises(ParameterError):
        Graph(3, ((1, 2), (1, 2)))  # duplicate without multigraph flag


def test_unknown_family():
    with pytest.raises(ParameterError):
        make_graph("wheel", [4])


def _size_refusal(vertices, files):
    return (f"graphs are capped at {GRAPH_VERTEX_CAP} vertices and "
            f"{GRAPH_FILE_CAP} files, got {vertices} and {files}")


@pytest.mark.parametrize("family,params,vertices,files", [
    ("star", [GRAPH_FILE_CAP + 1], GRAPH_FILE_CAP + 2, GRAPH_FILE_CAP + 1),
    ("path", [GRAPH_VERTEX_CAP + 1], GRAPH_VERTEX_CAP + 1, GRAPH_VERTEX_CAP),
    ("cycle", [GRAPH_FILE_CAP + 1], GRAPH_FILE_CAP + 1, GRAPH_FILE_CAP + 1),
    ("complete", [142], 142, 10_011),
    ("complete_bipartite", [100, 101], 201, 10_100),
])
def test_family_size_caps(family, params, vertices, files):
    # the count comes from the parameters; one below the cap is built
    with pytest.raises(UnsupportedSizeError) as exc:
        make_graph(family, params)
    assert str(exc.value) == _size_refusal(vertices, files)
    below = [params[0] - 1, *params[1:]]
    assert len(make_graph(family, below).edges) <= GRAPH_FILE_CAP


def test_star_fits_both_caps_at_the_edge():
    g = make_graph("star", [GRAPH_FILE_CAP])
    assert (g.n, len(g.edges)) == (GRAPH_VERTEX_CAP, GRAPH_FILE_CAP)


def test_graph_size_caps():
    assert Graph(GRAPH_VERTEX_CAP).n == GRAPH_VERTEX_CAP
    with pytest.raises(UnsupportedSizeError) as exc:
        Graph(GRAPH_VERTEX_CAP + 1, ((1, 2),))
    assert str(exc.value) == _size_refusal(GRAPH_VERTEX_CAP + 1, 1)
    # replication makes files too: a multigraph counts every copy
    edge = make_graph("path", [2])
    assert len(edge.extend(GRAPH_FILE_CAP).edges) == GRAPH_FILE_CAP
    with pytest.raises(UnsupportedSizeError) as exc:
        edge.extend(GRAPH_FILE_CAP + 1)
    assert str(exc.value) == _size_refusal(2, GRAPH_FILE_CAP + 1)


# ============================================================
# multigraph extension
# ============================================================

def test_extension_scales_degrees():
    g = make_graph("complete", [3])
    h = g.extend(2)
    assert h.multigraph
    assert len(h.edges) == 6
    for v in (1, 2, 3):
        assert h.degree(v) == 2 * g.degree(v)


def test_extension_requires_positive_r():
    with pytest.raises(ParameterError):
        make_graph("complete", [3]).extend(0)


# ============================================================
# JSON round trip; FileId = edge position
# ============================================================

def test_json_round_trip():
    g = make_graph("complete_bipartite", [2, 3]).extend(2)
    j = g.to_json()
    assert j["n"] == 5 and j["multigraph"] is True
    h = Graph.from_json(j)
    assert h == g
    assert h.edges == g.edges  # FileId positions preserved


def test_incident_files():
    g = make_graph("complete", [3])
    # edges (1,2),(1,3),(2,3) -> ids 0,1,2
    assert g.incident(1) == (0, 1)
    assert g.incident(3) == (1, 2)
    assert g.endpoints(2) == (2, 3)


def test_incidence_of_a_vertex_outside_the_graph():
    g = make_graph("star", [3]).extend(2)
    assert g.degree(1) == g.max_degree() == 6
    for v in (0, 5, -1):
        assert g.incident(v) == () and g.degree(v) == 0
    assert Graph(2).max_degree() == 0


def test_copies_follow_incident_files():
    g = make_graph("complete", [3]).extend(2)
    assert g.copies(1) == ((0, True), (1, True), (2, True), (3, True))
    assert g.copies(3) == ((2, False), (3, False), (4, False), (5, False))
    lonely = Graph(3, ((1, 2),))
    assert lonely.copies(3) == ()
    for v in g.servers:
        assert tuple(f for f, _ in g.copies(v)) == g.incident(v)
    assert g == make_graph("complete", [3]).extend(2)  # cache is not a field


# ============================================================
# matching number: brute-force oracle
# ============================================================

def _matching_brute(g):
    best = 0
    edges = list(g.edges)
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for subset in itertools.combinations(edges, r):
            used = [v for e in subset for v in e]
            if len(used) == len(set(used)):
                best = max(best, r)
                break
    return best


def test_matching_known_values():
    assert matching_number(make_graph("complete", [3])) == 1
    assert matching_number(make_graph("complete", [4])) == 2
    assert matching_number(make_graph("star", [4])) == 1
    assert matching_number(make_graph("cycle", [5])) == 2
    assert matching_number(make_graph("path", [4])) == 2
    assert matching_number(make_graph("complete_bipartite", [2, 3])) == 2


def test_matching_empty_graph():
    assert matching_number(Graph(3, ())) == 0


def test_matching_over_cap_raises():
    g = make_graph("complete", [12])  # 66 edges > 64
    with pytest.raises(UnsupportedSizeError):
        matching_number(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pool = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=12))
    return Graph(n, tuple(sorted(edges)))


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_matching_matches_bruteforce(g):
    assert matching_number(g) == _matching_brute(g)
