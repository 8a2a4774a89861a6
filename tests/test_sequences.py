"""Oracle and property tests for the x/y/z recursion ledger.

The small-n sequence values below were iterated by hand from the recursion
definitions (not copied from the implementation), and the closed-form spot
values (4,2)->5/2, (5,4)->11, (7,5)->211/3 were evaluated by hand from the
alternating-sum formula.
"""

from fractions import Fraction as F
import math

import pytest

from pirlab.sequences import (
    SequenceLedger,
    answer_count,
    build_sequences,
    rate,
    scaling_M,
    step_ledger,
    subpacketization,
)
from pirlab.errors import ParameterError

from reference_sequences import closed_form_x


# ============================================================
# hand-iterated oracles
# ============================================================

def test_n3_sequences():
    s = build_sequences(3)
    assert s.x == {1: F(1), 2: F(2)}
    assert s.y == {2: F(0)}
    assert s.z == {1: F(1)}
    assert s.k0 == 3
    assert s.m_scale == 1
    assert s.subpacketization == 6


def test_n4_sequences():
    s = build_sequences(4)
    assert s.x == {1: F(1), 2: F(5, 2), 3: F(9, 2)}
    assert s.y == {2: F(1, 2), 3: F(0)}
    assert s.z == {1: F(1), 2: F(2)}
    assert s.k0 == 4
    assert s.m_scale == 4
    assert s.subpacketization == 84


def test_n5_sequences():
    s = build_sequences(5)
    assert s.x == {1: F(1), 2: F(3), 3: F(7), 4: F(11)}
    assert s.y == {2: F(1), 3: F(3, 2), 4: F(0)}
    assert s.z == {1: F(1), 2: F(5, 2), 3: F(4)}
    assert s.k0 == 4
    assert s.subpacketization == 336


def test_n6_sequences():
    s = build_sequences(6)
    assert s.x == {1: F(1), 2: F(7, 2), 3: F(10), 4: F(43, 2), 5: F(28)}
    assert s.y == {2: F(3, 2), 3: F(7, 2), 4: F(5), 5: F(0)}
    assert s.z == {1: F(1), 2: F(3), 3: F(13, 2), 4: F(13, 2)}
    assert s.k0 == 5


def test_n7_sequences():
    s = build_sequences(7)
    assert s.x == {1: F(1), 2: F(4), 3: F(27, 2), 4: F(73, 2),
                   5: F(211, 3), 6: F(211, 3)}
    assert s.y == {2: F(2), 3: F(6), 4: F(27, 2), 5: F(211, 12), 6: F(0)}
    assert s.z == {1: F(1), 2: F(7, 2), 3: F(19, 2), 4: F(65, 4), 5: F(0)}
    assert s.k0 == 5


def test_rejects_small_n():
    with pytest.raises(ParameterError):
        build_sequences(2)


# ============================================================
# closed form vs recurrence (dual route)
# ============================================================

def test_closed_form_spot_values():
    assert closed_form_x(4, 2) == F(5, 2)
    assert closed_form_x(5, 4) == F(11)
    assert closed_form_x(7, 4) == F(73, 2)
    assert closed_form_x(7, 5) == F(211, 3)
    assert closed_form_x(6, 5) == F(28)


def test_closed_form_equals_recurrence():
    for n in range(3, 13):
        s = build_sequences(n)
        for k in range(1, n):
            assert closed_form_x(n, k) == s.x[k], (n, k)


# ============================================================
# structural invariants
# ============================================================

@pytest.mark.parametrize("n", range(3, 21))
def test_invariants(n):
    s = build_sequences(n)
    # index ranges
    assert set(s.x) == set(range(1, n))
    assert set(s.y) == set(range(2, n))
    assert set(s.z) == set(range(1, n - 1))
    assert s.k0 == n // 2 + 2
    # x non-decreasing, bounds on y and z
    for k in range(2, n):
        assert s.x[k] >= s.x[k - 1]
        assert 0 <= s.y[k] <= s.x[k]
    for k in range(1, n - 1):
        assert 0 <= s.z[k] <= s.x[k]
    # y vanishes at the last step
    assert s.y[n - 1] == 0
    # supporting inequality x_k >= k*y_k / (2(n-k-1))
    for k in range(2, n - 1):
        assert s.x[k] >= F(k) * s.y[k] / (2 * (n - k - 1))
    # closed-form relations for y
    for k in range(2, n):
        if k <= n // 2 + 1:
            assert s.y[k] == F(n - k - 1, 2) * s.x[k - 1]
        if k >= s.k0:
            assert s.y[k] == F(n - k - 1, k - 1) * s.x[k]
    # case-2 ratio of weighted answer counts A_k = C(n-2, k-1) x_k;
    # needs z_{k-1} = 0, which starts one step after k0
    for k in range(s.k0 + 1, n):
        a_k = math.comb(n - 2, k - 1) * s.x[k]
        a_prev = math.comb(n - 2, k - 2) * s.x[k - 1]
        assert a_k * (2 * k - n) == a_prev * (n - k)


# ============================================================
# M scaling (LCM dry run vs iterating oracle)
# ============================================================

def _m_by_iteration(n, limit=10000):
    """Oracle: smallest M making every ledger count a nonnegative integer."""
    s = build_sequences(n)
    steps = step_ledger(n)
    values = list(s.x.values()) + list(s.y.values()) + list(s.z.values())
    for st in steps:
        values += [st.alpha_per, st.beta_per, st.gamma_per, st.zeta_per,
                   st.leftover_per_type]
    for m in range(1, limit + 1):
        if all((v * m).denominator == 1 for v in values):
            return m
    raise AssertionError("no M found")


def test_scaling_known_values():
    assert scaling_M(3) == 1
    assert scaling_M(4) == 4


def test_scaling_matches_iteration_oracle():
    for n in range(3, 9):
        assert scaling_M(n) == _m_by_iteration(n), n


def test_integrality_of_scaled_sequences():
    for n in range(3, 9):
        s = build_sequences(n)
        m = s.m_scale
        for v in list(s.x.values()) + list(s.y.values()) + list(s.z.values()):
            assert (v * m).denominator == 1


# ============================================================
# derived quantities
# ============================================================

def test_subpacketization_values():
    assert subpacketization(3) == 6
    assert subpacketization(4) == 84
    # L(5) = 84 * M(5)
    assert subpacketization(5) == 84 * scaling_M(5)


def test_rate_values():
    assert rate(3) == F(1, 2)
    assert rate(4) == F(7, 20)
    assert rate(5) == F(84, 305)
    assert rate(6) == F(126, 551)


def test_answer_count_values():
    # per-server summation totals: sum_k C(n-1,k) x_k M
    assert answer_count(3) == 4
    assert answer_count(4) == 60


def test_rate_is_l_over_downloads():
    for n in range(3, 9):
        assert rate(n) == F(subpacketization(n), n * answer_count(n))


def test_rate_matches_closed_form_x():
    # rate sums scaled integers; recompute it from the closed form of x_k
    for n in range(3, 61):
        xs = {k: closed_form_x(n, k) for k in range(1, n)}
        created = 2 * sum(math.comb(n - 2, k - 1) * xs[k] for k in xs)
        downloaded = n * sum(math.comb(n - 1, k) * xs[k] for k in xs)
        assert rate(n) == created / downloaded, n


def test_rate_coefficient_trend():
    # n * rate(n) stays >= 1.30 on the tested range
    for n in range(3, 41):
        assert n * rate(n) >= F(13, 10)


# ============================================================
# step ledger sanity (used by the scheme builder)
# ============================================================

def test_step_ledger_n4_totals():
    by_k = {st.k: st for st in step_ledger(4)}
    m = scaling_M(4)
    s2, s3 = by_k[2], by_k[3]
    # totals over all realizations, scaled by M: known application counts
    assert s2.alpha_per * s2.alpha_realizations * m == 16
    assert s2.beta_per * s2.beta_realizations * m == 0
    assert s2.gamma_per * s2.gamma_realizations * m == 16
    assert s2.zeta_per * s2.zeta_realizations * m == 8
    assert s3.alpha_per * s3.alpha_realizations * m == 16
    assert s3.beta_per * s3.beta_realizations * m == 2
    assert s3.gamma_per * s3.gamma_realizations * m == 18
    assert s3.zeta_per * s3.zeta_realizations * m == 0


def test_step_ledger_n3_totals():
    by_k = {st.k: st for st in step_ledger(3)}
    s2 = by_k[2]
    assert s2.alpha_per * s2.alpha_realizations == 2
    assert s2.gamma_per * s2.gamma_realizations == 2
    assert s2.zeta_per * s2.zeta_realizations == 0
    assert s2.beta_per * s2.beta_realizations == 0


def test_step_ledger_desired_totals_match_l():
    # every pattern consumes exactly one desired subfile; step-1 direct
    # requests contribute 2*x_1*M
    for n in range(3, 9):
        s = build_sequences(n)
        m = s.m_scale
        total = 2 * s.x[1] * m
        for st in step_ledger(n):
            total += (st.alpha_per * st.alpha_realizations
                      + st.beta_per * st.beta_realizations
                      + st.gamma_per * st.gamma_realizations
                      + st.zeta_per * st.zeta_realizations) * m
        assert total == s.subpacketization


def test_step_ledger_leftovers_only_case2():
    # side information (unconsumed R-labels) appears only once the case-2
    # cap binds, i.e. not before n=7
    for n in range(3, 7):
        assert all(st.leftover_per_type == 0 for st in step_ledger(n))
    assert any(st.leftover_per_type > 0 for st in step_ledger(7))
