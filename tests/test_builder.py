"""Scheme builder for complete graphs: goldens and structural checks.

The K3 scheme is pinned against the fixture transcribed from the published
table; the K4 anchors (subscript values of selected rows) were worked out by
hand from the subscript rules before implementation.
"""

import dataclasses
from collections import Counter
from fractions import Fraction as F

import pytest

from pirlab.builder import build_scheme, class_plan, verify_scheme
from pirlab.scheme import Summation
from pirlab.sequences import (answer_count, build_sequences, step_ledger,
                              subpacketization)
from pirlab.errors import (InternalConsistencyError, ParameterError,
                           UnsupportedSizeError)
from pirlab.graphs import make_graph

from conftest import row_at
from reference_scheme import class_counts, v1_document
from relabel import relabel


def _query_sets(s):
    return {srv: {q.terms for q in qs} for srv, qs in s.queries.items()}


# ============================================================
# K3: exact reproduction of the published 6-row scheme
# ============================================================

def test_k3_matches_fixture(k3_scheme):
    built = build_scheme(3)
    assert built.L == 6
    assert built.theta == 0
    assert _query_sets(built) == _query_sets(k3_scheme)
    assert built.side_info == ()


def test_k3_pattern_grouping():
    s = build_scheme(3)
    # patterns 1..6; steps 1,1,2,2,2,2; classes direct/alpha/gamma, as the
    # class plan gives them in target order
    assert [p.target for p in s.patterns] == [1, 2, 3, 4, 5, 6]
    patterns = v1_document(s)["patterns"]
    assert [p["step"] for p in patterns] == [1, 1, 2, 2, 2, 2]
    assert [p["class"] for p in patterns] == [
        "direct", "direct", "alpha", "alpha", "gamma", "gamma"]
    # pattern 5 selects S1: a5+b2, S2: c2, S3: b2+c2
    sel = s.patterns[4]
    terms = {srv: row_at(s.queries[srv], idx).terms
             for srv, idx in sel.selections.items()}
    assert terms == {1: ((0, 5, 1), (1, 2, 1)), 2: ((2, 2, 1),),
                     3: ((1, 2, 1), (2, 2, 1))}


# ============================================================
# K4 goldens
# ============================================================

@pytest.fixture(scope="module")
def k4():
    return build_scheme(4)


def test_k4_shape(k4):
    assert k4.L == 84 == subpacketization(4)
    for srv in range(1, 5):
        assert len(k4.queries[srv]) == 60 == answer_count(4)
    assert k4.side_info == ()
    assert len(k4.patterns) == 84


def test_k4_step_and_class_counts(k4):
    counts = class_counts(k4)
    assert counts[1] == {"direct": 8}
    assert counts[2] == {"alpha": 16, "gamma": 16, "zeta": 8}
    assert counts[3] == {"alpha": 16, "beta": 2, "gamma": 18}
    step_totals = {k: sum(v.values()) for k, v in counts.items()}
    assert step_totals == {1: 8, 2: 40, 3: 36}


def test_k4_verifies(k4):
    report = verify_scheme(k4)
    assert report.ok, report.violations


def test_k4_measured_rate(k4):
    downloads = sum(len(qs) for qs in k4.queries.values())
    assert F(k4.L, downloads) == F(7, 20)


def _pattern_terms(s, t):
    p = s.patterns[t - 1]
    assert p.target == t
    return {srv: row_at(s.queries[srv], idx).terms
            for srv, idx in p.selections.items()}


def test_k4_subscript_anchors(k4):
    # file ids on K4: a=0 b=1 c=2 d=3 e=4 f=5
    # first zeta application (target 41): S1: a41+b13, S3: b13+f1, S4: f1
    assert _pattern_terms(k4, 41) == {
        1: ((0, 41, 1), (1, 13, 1)),
        3: ((1, 13, 1), (5, 1, 1)),
        4: ((5, 1, 1),),
    }
    # first beta application (target 65)
    assert _pattern_terms(k4, 65) == {
        1: ((0, 65, 1), (1, 23, 1), (2, 23, 1)),
        2: ((3, 23, 1), (4, 23, 1)),
        3: ((1, 23, 1), (3, 23, 1)),
        4: ((2, 23, 1), (4, 23, 1)),
    }
    # first gamma application at step 2 (target 25): S1: a25+b5, S2: d5, S3: b5+d5
    assert _pattern_terms(k4, 25) == {
        1: ((0, 25, 1), (1, 5, 1)),
        2: ((3, 5, 1),),
        3: ((1, 5, 1), (3, 5, 1)),
    }


def test_k4_every_theta_builds_and_verifies():
    for theta in range(6):
        s = build_scheme(4, theta=theta)
        assert s.L == 84
        assert verify_scheme(s).ok
        # half the targets recovered via each endpoint server
        t1, t2 = s.graph.endpoints(theta)
        via = {t1: 0, t2: 0}
        for p in s.patterns:
            holder = [srv for srv, idx in p.selections.items()
                      if theta in row_at(s.queries[srv], idx).files]
            assert len(holder) == 1
            via[holder[0]] += 1
        assert via[t1] == via[t2] == 42


# ============================================================
# n=5, n=6
# ============================================================

def test_k5_builds_and_verifies():
    s = build_scheme(5)
    assert s.L == 336
    assert verify_scheme(s).ok
    assert s.side_info == ()


def test_k6_builds_and_verifies():
    s = build_scheme(6)
    assert s.L == subpacketization(6)
    assert verify_scheme(s).ok
    assert s.side_info == ()


# ============================================================
# every theta is a relabeling of theta = 0
# ============================================================

@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_every_theta_is_theta_zero_relabeled(n):
    # the whole scheme: each server's rows in order, which give the
    # patterns and the side information (the K7 case is in the slow tier)
    base = build_scheme(n, 0)
    for theta in base.graph.files:
        assert relabel(base, theta) == build_scheme(n, theta), theta


# ============================================================
# validation and error paths
# ============================================================

def test_builder_caps_n():
    with pytest.raises(UnsupportedSizeError):
        build_scheme(9)
    with pytest.raises(ParameterError):
        build_scheme(2)


def test_builder_rejects_bad_theta():
    with pytest.raises(ParameterError):
        build_scheme(3, theta=5)


def test_verify_catches_tampering():
    s = build_scheme(3)
    qs = dict(s.queries)
    row = list(qs[3])
    # swap one subscript: breaks multiplicity/cancellation
    row[0] = Summation(((1, 6, 1),))
    qs[3] = tuple(row)
    tampered = s.replace(queries=qs)
    assert not verify_scheme(tampered).ok


def _with_row(s, server, index, terms):
    rows = list(s.queries[server])
    rows[index:index + 1] = [Summation(terms)]
    return s.replace(queries={**s.queries, server: tuple(rows)})


def _verify_rejects(s, prefix):
    report = verify_scheme(s)
    assert not report.ok
    assert any(v.startswith(prefix) for v in report.violations), \
        report.violations
    return report


def test_verify_refuses_graphs_that_are_not_complete(star4_scheme):
    # the K_n ledgers would report 17 false violations on this valid scheme
    with pytest.raises(ParameterError, match="complete graphs"):
        verify_scheme(star4_scheme)


def test_verify_needs_patterns():
    # rows that give no pattern recover nothing
    s = build_scheme(3)
    report = _verify_rejects(s.replace(queries={}), "condition 3: ")
    assert report.violations[0] == \
        "condition 3: L = 6 exceeds the rows' 0 terms"


def test_verify_needs_targets_one_to_l():
    # K3, theta = 0: S2 row 0 is the direct request a2; asking it for a1
    # gives two patterns with target 1 and none with target 2
    s = build_scheme(3)
    assert row_at(s.queries[2], 0).terms == ((0, 2, 1),)
    report = _verify_rejects(_with_row(s, 2, 0, ((0, 1, 1),)),
                             "condition 3: ")
    assert report.violations[0] == (
        "condition 3: desired subfiles must appear exactly once each: "
        "missing [2], repeated or out of range [1]")


def test_verify_needs_even_endpoint_split():
    # K3, theta = 0: S1 row 0 is the direct request a1; ask S1 for b1
    # instead, so S1 keeps 2 desired rows against S2's 3
    s = build_scheme(3)
    assert row_at(s.queries[1], 0).terms == ((0, 1, 1),)
    _verify_rejects(_with_row(s, 1, 0, ((1, 1, 1),)),
                    "desired rows split {1: 2, 2: 3}, expected 3 per endpoint")


def test_verify_counts_every_type():
    # S3 stores b and c, one lone row of each (x_1 M = 1); asking for c
    # in place of b leaves type [1] short and type [2] over
    s = build_scheme(3)
    index = next(i for i, row in enumerate(s.queries[3])
                 if row.files == (1,))
    report = _verify_rejects(_with_row(s, 3, index, ((2, 9, 1),)),
                             "type [1] at server 3 has 0 rows, expected 1")
    assert "type [2] at server 3 has 2 rows, expected 1" in report.violations


def test_verify_counts_rows_per_server():
    # one extra row at S3, of a size (n - 1 = 3) no type quota covers
    s = build_scheme(4)
    grown = _with_row(s, 3, len(s.queries[3]), ((1, 99, 1), (3, 99, 1),
                                                (5, 99, 1)))
    report = _verify_rejects(grown, f"server 3 holds {answer_count(4) + 1} "
                                    f"rows, expected {answer_count(4)}")
    assert not any(v.startswith("type ") for v in report.violations)


def test_verify_rejects_desired_term_off_the_endpoints():
    # K3, theta = 0 lives on S1 and S2; S3 cannot answer it, and the
    # independence analysis says so as a condition-2 violation
    s = build_scheme(3)
    f, sub, sign = row_at(s.queries[3], 0).terms[0]
    _verify_rejects(_with_row(s, 3, 0, ((0, 1, 1), (f, sub, sign))),
                    "condition 2: server 3 asked for file 0")


# ============================================================
# the class ledger
# ============================================================

# leftover side-information rows the plan pools, per n; 0 for n <= 6
LEFTOVER_ROWS = {7: 480, 8: 16_344, 9: 627_480, 10: 19_765_920,
                 11: 4_944_085_020}


def _plan(n, theta, led=None):
    return class_plan(make_graph("complete", [n]), theta,
                      led or build_sequences(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10,
                               pytest.param(11, marks=pytest.mark.slow)])
def test_class_counts_match_the_ledger(n):
    """Every step emits exactly the realizations the ledger counts.

    The plan is counted past BUILDER_CAP; the built scheme's patterns
    match the plan's tally up to n = 6.
    """
    led = build_sequences(n)
    m = led.m_scale
    for theta in (0, n * (n - 1) // 2 - 1):
        variants, pool = _plan(n, theta, led)
        plan_counts = Counter()
        variant_counts = Counter()
        for step, cls, copies, _new, _old in variants:
            plan_counts[step, cls] += copies
            variant_counts[step, cls] += 1
        assert sum(plan_counts.values()) == led.subpacketization
        assert sum(pool.values()) == LEFTOVER_ROWS.get(n, 0)
        for st in step_ledger(n):
            for cls in ("alpha", "beta", "gamma", "zeta"):
                per = getattr(st, f"{cls}_per") * m
                realizations = getattr(st, f"{cls}_realizations") if per else 0
                assert variant_counts[st.k, cls] == realizations, \
                    (n, theta, st.k, cls)
                assert plan_counts[st.k, cls] == per * realizations
        if n <= 6:
            counts = class_counts(build_scheme(n, theta))
            assert counts == {
                step: {cls: c for (s, cls), c in plan_counts.items()
                       if s == step}
                for step in sorted({s for s, _ in plan_counts})}


def test_plan_refuses_an_unbalanced_ledger():
    # one row (1/M) short of x_1 starves the first step-2 alpha
    led = build_sequences(5)
    short = dataclasses.replace(
        led, x={**led.x, 1: led.x[1] - F(1, led.m_scale)})
    with pytest.raises(InternalConsistencyError) as exc:
        _plan(5, 0, short)
    assert str(exc.value) == \
        "consumed missing type [1] at server 3 in step 2 (alpha)"
    # no size-2 quota at all: the rows step 2 creates have nowhere to go
    none = dataclasses.replace(led, x={**led.x, 2: F(0)})
    with pytest.raises(InternalConsistencyError) as exc:
        _plan(5, 0, none)
    assert str(exc.value) == "over-created type [1, 4] at server 3"
