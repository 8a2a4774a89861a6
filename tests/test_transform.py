"""Deterministic -> probabilistic transform goldens and invariants."""

from collections import Counter
from fractions import Fraction as F

import pytest

from pirlab.builder import build_scheme
from pirlab.patterns import extract_patterns
from pirlab.scheme import Summation
from pirlab.sequences import rate
from pirlab.sim import privacy_audit, run_probabilistic_trials
from pirlab.transform import InfeasibleError, entropy_proxy_ok, prob_rate, transform

from reference_transform import reference_transform


def _rows_as_dicts(p):
    return [{srv: combo for srv, combo in row.q.items() if combo is not None}
            for row in p.rows]


# ============================================================
# K3 golden: six rows, uniform 1/6
# ============================================================

def test_k3_transform_rows(k3_scheme):
    p = transform(k3_scheme)
    assert len(p.rows) == 6
    assert all(p.p(row) == F(1, 6) for row in p.rows)
    a, b, c = 0, 1, 2
    expected = [
        {1: ((a, 1),)},
        {2: ((a, 1),)},
        {1: ((a, 1), (b, 1)), 3: ((b, 1),)},
        {2: ((a, 1), (c, 1)), 3: ((c, 1),)},
        {1: ((a, 1), (b, 1)), 2: ((c, 1),), 3: ((b, 1), (c, 1))},
        {1: ((b, 1),), 2: ((a, 1), (c, 1)), 3: ((b, 1), (c, 1))},
    ]
    assert _rows_as_dicts(p) == expected
    assert [row.pattern_servers for row in p.rows] == [
        (1,), (2,), (1, 3), (2, 3), (1, 2, 3), (1, 2, 3)]
    assert prob_rate(p) == F(1, 2)


# ============================================================
# star golden: side-information placement into empty rows
# ============================================================

def test_star_transform_rows(star4_scheme):
    p = transform(star4_scheme)
    assert len(p.rows) == 5
    assert all(p.p(row) == F(1, 5) for row in p.rows)
    a, b, c, d = 0, 1, 2, 3
    expected = [
        {1: ((a, 1), (b, 1), (c, 1)), 3: ((b, 1),), 4: ((c, 1),)},
        {1: ((a, 1), (b, 1), (d, 1)), 3: ((b, 1),), 5: ((d, 1),)},
        {1: ((a, 1), (c, 1), (d, 1)), 4: ((c, 1),), 5: ((d, 1),)},
        # side info B+C+D placed in the first row where the center is idle
        {1: ((b, 1), (c, 1), (d, 1)), 2: ((a, 1),)},
        {2: ((a, 1),)},
    ]
    assert _rows_as_dicts(p) == expected
    assert [row.pattern_servers for row in p.rows] == [
        (1, 3, 4), (1, 3, 5), (1, 4, 5), (2,), (2,)]
    assert prob_rate(p) == F(5, 12)


# ============================================================
# infeasibility: more summations at a server than rows
# ============================================================

def test_center_heavy_rejected(center_heavy_scheme):
    with pytest.raises(InfeasibleError) as err:
        transform(center_heavy_scheme)
    assert err.value.server == 1


# ============================================================
# rate preservation and row frequencies
# ============================================================

@pytest.mark.parametrize("n", [3, 4, 5])
def test_rate_preserved_on_built_schemes(n):
    s = build_scheme(n)
    p = transform(s)
    assert prob_rate(p) == rate(n)
    # one row per distinct joint query of the L slots
    assert len(p.rows) == len(_grouped(reference_transform(s)))
    assert len(p.rows) == {3: 6, 4: 20, 5: 60}[n]


@pytest.mark.parametrize("n", [3, 4])
def test_row_frequency_matches_source_multiplicity(n):
    s = build_scheme(n)
    p = transform(s)
    for srv, rows in s.queries.items():
        source = Counter(tuple(sorted((t[0], t[2]) for t in q.terms))
                         for q in rows)
        emitted = Counter()
        for row in p.rows:
            if row.q[srv] is not None:
                emitted[row.q[srv]] += p.p(row) * s.L
        assert emitted == source


# ============================================================
# merged rows against the per-pattern reference
# ============================================================

def _grouped(pscheme):
    """Rows grouped by (q, pattern_servers), mass summed, first-seen order."""
    mass = {}
    for row in pscheme.rows:
        key = (tuple(sorted(row.q.items())), row.pattern_servers)
        mass[key] = mass.get(key, 0) + pscheme.p(row)
    return [(dict(q), servers, p) for (q, servers), p in mass.items()]


def _assert_merges_reference(scheme, ex=None):
    got = transform(scheme, ex)
    want = reference_transform(scheme, ex)
    assert (got.graph, got.theta) == (want.graph, want.theta)
    assert [(row.q, row.pattern_servers, got.p(row)) for row in got.rows] == \
        _grouped(want)
    return got


def test_merge_matches_reference_on_fixtures(k3_scheme, star4_scheme):
    for scheme in (k3_scheme, star4_scheme):
        _assert_merges_reference(scheme)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_merge_matches_reference_for_every_theta(n):
    # every theta: grouped reference rows, the rate, the exact trial and a
    # distributional audit of the merged family with no deviation at all
    family = {}
    for theta in range(n * (n - 1) // 2):
        scheme = build_scheme(n, theta)
        p = _assert_merges_reference(scheme, extract_patterns(scheme))
        assert prob_rate(p) == rate(n)
        contents = [(f * 7 + theta) % 2 for f in p.graph.files]
        assert run_probabilistic_trials(p, contents, mode="exact").ok
        family[theta] = p
    report = privacy_audit(family, mode="distributional")
    assert report.ok
    assert report.max_deviation == 0


def test_every_summation_lands_in_exactly_one_row(star4_scheme):
    p = transform(star4_scheme)
    total = sum(1 for row in p.rows for combo in row.q.values()
                if combo is not None)
    assert total == sum(len(qs) for qs in star4_scheme.queries.values())


def test_side_info_fills_earliest_idle_rows_in_order(k3_scheme):
    # S3 sits out of the patterns for targets 1 and 2, so rows 0 and 1 are
    # its only idle slots; two unshared rows b4 and c4 become side
    # information and must land there, in side-info order.
    queries = dict(k3_scheme.queries)
    queries[3] = (*queries[3], Summation(((1, 4, 1),)),
                  Summation(((2, 4, 1),)))
    s = k3_scheme.replace(queries=queries)
    assert extract_patterns(s).side_info == ((3, 4), (3, 5))
    p = transform(s)
    assert [row.q[3] for row in p.rows] == [
        ((1, 1),), ((2, 1),), ((1, 1),), ((2, 1),),
        ((1, 1), (2, 1)), ((1, 1), (2, 1))]


# ============================================================
# entropy proxy flag
# ============================================================

def test_entropy_proxy_on_fixtures(k3_scheme, star4_scheme):
    assert entropy_proxy_ok(k3_scheme)
    assert entropy_proxy_ok(star4_scheme)
    assert entropy_proxy_ok(build_scheme(4))


def _with_server_rows(scheme, server, rows):
    queries = dict(scheme.queries)
    queries[server] = tuple(Summation(terms) for terms in rows)
    return scheme.replace(queries=queries)


def test_entropy_proxy_repeated_symbol_dependent_rows(k3_scheme):
    # a1+b1, a1, b1 at S1: the first row is the sum of the other two
    bad = _with_server_rows(k3_scheme, 1, [((0, 1, 1), (1, 1, 1)),
                                           ((0, 1, 1),), ((1, 1, 1),)])
    assert not entropy_proxy_ok(bad)


def test_entropy_proxy_repeated_symbol_independent_rows(k3_scheme):
    # a1+b1, a1, b2 at S1: a1 repeats, but the rows stay independent
    good = _with_server_rows(k3_scheme, 1, [((0, 1, 1), (1, 1, 1)),
                                            ((0, 1, 1),), ((1, 2, 1),)])
    assert entropy_proxy_ok(good)


def test_entropy_proxy_empty_row(k3_scheme):
    bad = _with_server_rows(k3_scheme, 1, [((0, 1, 1),), ()])
    assert not entropy_proxy_ok(bad)


def _gf2_reference(scheme):
    """Gaussian elimination over all of each server's rows, no shortcut."""
    for rows in scheme.queries.values():
        bit_of, basis = {}, {}
        for row in rows:
            vec = 0
            for f, s, _sign in row.terms:
                vec ^= 1 << bit_of.setdefault((f, s), len(bit_of))
            while vec and vec.bit_length() - 1 in basis:
                vec ^= basis[vec.bit_length() - 1]
            if not vec:
                return False
            basis[vec.bit_length() - 1] = vec
    return True


@pytest.mark.parametrize("rows", [
    [((0, 1, 1), (1, 1, 1)), ((0, 1, 1),), ((1, 1, 1),)],
    [((0, 1, 1), (1, 1, 1)), ((0, 1, 1),), ((1, 2, 1),)],
    [((0, 1, 1),), ()],
    [((0, 1, 1),), ((9, 1, 1),)],  # file 9 is not in K3: analyze raises
    [((0, 1, 1),), ((2, 1, 1),)],  # S1 does not store file 2
], ids=["dependent", "repeat-independent", "empty-row", "unknown-file",
        "not-stored"])
def test_entropy_proxy_matches_plain_elimination(k3_scheme, rows):
    # schemes whose analysis is not ok, or raises, take the per-server path
    s = _with_server_rows(k3_scheme, 1, rows)
    assert entropy_proxy_ok(s) == _gf2_reference(s)


def test_entropy_proxy_empty_side_info_row(k3_scheme):
    # an empty row is side information, so the analysis is ok
    queries = dict(k3_scheme.queries)
    queries[1] = (*queries[1], Summation(()))
    s = k3_scheme.replace(queries=queries)
    assert extract_patterns(s).side_info == ((1, 4),)
    assert not entropy_proxy_ok(s)
    assert not _gf2_reference(s)


def test_transform_accepts_precomputed_extraction(k3_scheme):
    ex = extract_patterns(k3_scheme)
    p1 = transform(k3_scheme, ex)
    p2 = transform(k3_scheme)
    assert p1 == p2


def test_json_round_trip(k3_scheme):
    from pirlab.scheme import ProbabilisticScheme
    p = transform(k3_scheme)
    doc = p.to_json()
    assert doc["rows"][0]["p"] == "1/6"
    assert ProbabilisticScheme.from_json(doc) == p
