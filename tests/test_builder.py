"""Scheme builder for complete graphs: goldens and structural checks.

The K3 scheme is pinned against the fixture transcribed from the published
table; the K4 anchors (subscript values of selected rows) were worked out by
hand from the subscript rules before implementation.
"""

import dataclasses
from fractions import Fraction as F

import pytest

from pirlab.builder import build_scheme, class_counts, verify_scheme
from pirlab.scheme import Summation
from pirlab.sequences import (answer_count, build_sequences, step_ledger,
                              subpacketization)
from pirlab.errors import ParameterError, UnsupportedSizeError


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
    # patterns 1..6; steps 1,1,2,2,2,2; classes direct/alpha/gamma
    assert [p.target for p in s.patterns] == [1, 2, 3, 4, 5, 6]
    assert [p.step for p in s.patterns] == [1, 1, 2, 2, 2, 2]
    assert [p.pattern_class for p in s.patterns] == [
        "direct", "direct", "alpha", "alpha", "gamma", "gamma"]
    # pattern 5 selects S1: a5+b2, S2: c2, S3: b2+c2
    sel = s.patterns[4]
    assert s.queries[1][sel.selections[1]].terms == ((0, 5, 1), (1, 2, 1))
    assert s.queries[2][sel.selections[2]].terms == ((2, 2, 1),)
    assert s.queries[3][sel.selections[3]].terms == ((1, 2, 1), (2, 2, 1))


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
    return {srv: s.queries[srv][idx].terms for srv, idx in p.selections.items()}


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
                      if any(t[0] == theta for t in s.queries[srv][idx].terms)]
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


def test_verify_needs_patterns():
    _verify_rejects(build_scheme(3).replace(patterns=()),
                    "scheme carries no recovery patterns")


def test_verify_needs_targets_one_to_l():
    s = build_scheme(3)
    patterns = list(s.patterns)
    patterns[1] = dataclasses.replace(patterns[1], target=1)
    _verify_rejects(s.replace(patterns=tuple(patterns)),
                    "pattern targets do not cover 1..L exactly once")


def test_verify_needs_even_endpoint_split():
    # K3, theta = 0: S1 row 0 is the direct request a1; ask S1 for b1
    # instead, so S1 keeps 2 desired rows against S2's 3
    s = build_scheme(3)
    assert s.queries[1][0].terms == ((0, 1, 1),)
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
    f, sub, sign = s.queries[3][0].terms[0]
    _verify_rejects(_with_row(s, 3, 0, ((0, 1, 1), (f, sub, sign))),
                    "condition 2: server 3 asked for file 0")


# ============================================================
# the class ledger
# ============================================================

@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_class_counts_match_the_ledger(n):
    """Every step emits exactly the realizations the ledger counts."""
    m = build_sequences(n).m_scale
    for theta in (0, n * (n - 1) // 2 - 1):
        counts = class_counts(build_scheme(n, theta))
        for st in step_ledger(n):
            for cls in ("alpha", "beta", "gamma", "zeta"):
                want = (getattr(st, f"{cls}_per")
                        * getattr(st, f"{cls}_realizations") * m)
                assert counts[st.k].get(cls, 0) == want, (n, theta, st.k, cls)
