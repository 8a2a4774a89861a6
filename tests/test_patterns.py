"""Pattern extraction, independence checking, and the source-symmetry report."""

import pytest
from hypothesis import given, settings, strategies as st

from pirlab.builder import build_scheme
from pirlab.patterns import (
    IndependenceError,
    check_independence,
    check_srp,
    extract_patterns,
)
from pirlab.scheme import Summation

from conftest import load_scheme, row_at


def _pattern_sets(scheme, patterns):
    out = set()
    for p in patterns:
        out.add(frozenset((srv, row_at(scheme.queries[srv], idx).terms)
                          for srv, idx in p.selections.items()))
    return out


# ============================================================
# K3 fixture: 6 patterns, empty side information
# ============================================================

def test_k3_independence(k3_scheme):
    assert check_independence(k3_scheme).ok


def test_k3_extraction(k3_scheme):
    ex = extract_patterns(k3_scheme)
    assert len(ex.patterns) == 6
    assert ex.side_info == ()
    # the published grouping, keyed by target
    expected = {
        1: {1: ((0, 1, 1),)},
        2: {2: ((0, 2, 1),)},
        3: {1: ((0, 3, 1), (1, 1, 1)), 3: ((1, 1, 1),)},
        4: {2: ((0, 4, 1), (2, 1, 1)), 3: ((2, 1, 1),)},
        5: {1: ((0, 5, 1), (1, 2, 1)), 2: ((2, 2, 1),),
            3: ((1, 2, 1), (2, 2, 1))},
        6: {2: ((0, 6, 1), (2, 3, 1)), 1: ((1, 3, 1),),
            3: ((1, 3, 1), (2, 3, 1))},
    }
    got = {p.target: {srv: row_at(k3_scheme.queries[srv], idx).terms
                      for srv, idx in p.selections.items()}
           for p in ex.patterns}
    assert got == expected


def test_k3_srp_passes(k3_scheme):
    rep = check_srp(k3_scheme, extract_patterns(k3_scheme))
    assert rep.counts == {1: 3, 2: 3}
    assert rep.ok


# ============================================================
# star fixture: 5 patterns + one side-information row
# ============================================================

def test_star_extraction(star4_scheme):
    ex = extract_patterns(star4_scheme)
    assert len(ex.patterns) == 5
    # side info is the all-blue 3-sum at the center
    assert len(ex.side_info) == 1
    srv, idx = ex.side_info[0]
    assert srv == 1
    assert row_at(star4_scheme.queries[1], idx).terms == \
        ((1, 3, 1), (2, 3, 1), (3, 3, 1))
    # targets 1..3 recovered through the center, 4..5 directly
    by_target = {p.target: sorted(p.selections) for p in ex.patterns}
    assert by_target == {1: [1, 3, 4], 2: [1, 3, 5], 3: [1, 4, 5],
                         4: [2], 5: [2]}


def test_star_srp_fails(star4_scheme):
    rep = check_srp(star4_scheme, extract_patterns(star4_scheme))
    assert rep.counts == {1: 3, 2: 2}
    assert not rep.ok


# ============================================================
# targeted mutations: conditions 2, 3, 4
# ============================================================

def _mutate(fixture_name, server, index, new_terms, *more):
    """Load a fixture with row `index` at `server` replaced; `more` holds
    further (server, index, new_terms) edits."""
    scheme = load_scheme(fixture_name)
    queries = {srv: list(rows) for srv, rows in scheme.queries.items()}
    for srv, idx, terms in ((server, index, new_terms),) + more:
        queries[srv][idx] = Summation(terms)
    return scheme.replace(queries=queries)


def test_condition2_duplicate_subfile_at_server():
    # S3's 2-sum b2+c2 -> b1+c2: (b,1) now appears twice at S3
    bad = _mutate("k3_scheme.json", 3, 2, [[1, 1, 1], [2, 2, 1]])
    rep = check_independence(bad)
    assert not rep.ok
    assert 2 in {v.condition for v in rep.violations}


def test_condition3_desired_subfile_duplicated():
    # S1's a5+b2 -> a3+b2: a3 appears twice, a5 never
    bad = _mutate("k3_scheme.json", 1, 3, [[0, 3, 1], [1, 2, 1]])
    rep = check_independence(bad)
    assert not rep.ok
    assert 3 in {v.condition for v in rep.violations}


def test_condition4_two_summations_one_server(two_per_server_scheme):
    rep = check_independence(two_per_server_scheme)
    assert not rep.ok
    assert {v.condition for v in rep.violations} == {4}
    with pytest.raises(IndependenceError):
        extract_patterns(two_per_server_scheme)


def test_condition1_duplicate_file_in_summation():
    bad = _mutate("star4_scheme.json", 1, 3, [[1, 3, 1], [1, 4, 1], [3, 3, 1]])
    rep = check_independence(bad)
    assert not rep.ok
    assert 1 in {v.condition for v in rep.violations}


# ============================================================
# round trip on built schemes
# ============================================================

@pytest.mark.parametrize("n", [3, 4, 5])
def test_extraction_reproduces_builder_partition(n):
    s = build_scheme(n)
    ex = extract_patterns(s)
    assert _pattern_sets(s, ex.patterns) == _pattern_sets(s, s.patterns)
    assert sorted(ex.side_info) == sorted(s.side_info)


def test_builder_srp_passes_small_n():
    for n in (3, 4, 5):
        s = build_scheme(n)
        rep = check_srp(s, extract_patterns(s))
        assert rep.ok, rep.counts


# ============================================================
# order independence of extraction
# ============================================================

@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_extraction_order_independent(rng):
    base = build_scheme(3)
    canonical = _pattern_sets(base, extract_patterns(base).patterns)
    qs = {}
    for srv, rows in base.queries.items():
        rows = list(rows)
        rng.shuffle(rows)
        qs[srv] = tuple(rows)
    shuffled = base.replace(queries=qs)
    assert _pattern_sets(shuffled, extract_patterns(shuffled).patterns) == canonical
