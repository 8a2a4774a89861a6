"""Capacity bound oracles and invariants.

Oracle values were derived by hand from the defining formulas before the
implementation was written (spot fractions like 6/17, 12/43, 8/31) or taken
from the published numeric table (5-decimal strings).
"""

from fractions import Fraction as F
import math

import pytest

from pirlab.bounds import (
    BOUNDS_CAP,
    BoundReport,
    bounds_table,
    general_upper_bound,
    multigraph_lower_bound,
    prior_bounds_complete,
    render_table,
    upper_bound_balanced_bipartite,
    upper_bound_complete,
)
from pirlab.graphs import make_graph
from pirlab.builder import build_scheme
from pirlab.sequences import build_sequences, rate
from pirlab.render import decimal_str
from pirlab.errors import ParameterError, UnsupportedSizeError


# ============================================================
# upper_bound_complete
# ============================================================

def test_upper_complete_exact_values():
    # 1 / (n * sum_{i=2..n} 1/i!) worked by hand:
    assert upper_bound_complete(3) == F(1, 2)
    assert upper_bound_complete(4) == F(6, 17)
    assert upper_bound_complete(5) == F(12, 43)
    assert upper_bound_complete(6) == F(120, 517)


def test_upper_complete_table_decimals():
    expected = ["0.50000", "0.35294", "0.27907", "0.23211",
                "0.19890", "0.17403", "0.15469", "0.13922"]
    got = [decimal_str(upper_bound_complete(n)) for n in range(3, 11)]
    assert got == expected


def test_upper_complete_running_sum_matches_direct_sum():
    for n in range(3, 61):
        direct = F(1, n) / sum(F(1, math.factorial(i)) for i in range(2, n + 1))
        assert upper_bound_complete(n) == direct, n


def test_upper_complete_rejects_small_n():
    with pytest.raises(ParameterError):
        upper_bound_complete(2)


@pytest.mark.parametrize("n,message", [
    (2, "K_n needs n >= 3, got 2"),
    (-3, "K_n needs n >= 3, got -3"),
    (3.5, "n must be an integer, got 3.5"),
    (True, "n must be an integer, got True"),
])
def test_n_rule_has_one_text(n, message):
    for call in (upper_bound_complete, prior_bounds_complete, build_scheme,
                 build_sequences, rate):
        with pytest.raises(ParameterError) as exc:
            call(n)
        assert str(exc.value) == message, call


@pytest.mark.parametrize("r,message", [
    (0, "replication factor must be >= 1, got 0"),
    (1.5, "replication factor must be an integer, got 1.5"),
])
def test_replication_rule_has_one_text(r, message):
    for call in (make_graph("complete", [3]).extend,
                 lambda r: multigraph_lower_bound(F(1, 2), r)):
        with pytest.raises(ParameterError) as exc:
            call(r)
        assert str(exc.value) == message


def test_upper_complete_coefficient_asymptote():
    # n * upper -> 1/(e-2) = 1.39221...
    coeff = 60 * upper_bound_complete(60)
    assert abs(float(coeff) - 1.3922) < 1e-3


def test_upper_complete_coefficient_monotone_and_above_limit():
    # n*upper(n) = 1/sum_{i=2..n} 1/i! strictly decreases and stays above
    # 1/(e-2).  The partial sum up to 200 terms is still strictly below e-2,
    # so comparing against it is an exact sufficient check.
    tail_proxy = sum(F(1, math.factorial(i)) for i in range(2, 201))
    prev = None
    for n in range(3, 41):
        coeff = n * upper_bound_complete(n)
        if prev is not None:
            assert coeff < prev
        assert coeff > 1 / tail_proxy
        prev = coeff


# ============================================================
# upper_bound_balanced_bipartite
# ============================================================

def test_bipartite_exact_values():
    # n=4: 1/(4*(1/2)*..): sum_{i=1..2} 1/(i! 2^i) = 1/2 + 1/8 = 5/8 -> 2/5
    assert upper_bound_balanced_bipartite(4) == F(2, 5)
    # n=6: sum_{i=1..3} = 1/2 + 1/8 + 1/48 = 31/48 -> 48/(6*31) = 8/31
    assert upper_bound_balanced_bipartite(6) == F(8, 31)


def test_bipartite_rejects_odd_or_small():
    with pytest.raises(ParameterError):
        upper_bound_balanced_bipartite(5)
    with pytest.raises(ParameterError):
        upper_bound_balanced_bipartite(2)


def test_bipartite_coefficient_asymptote():
    # n * bound -> 1/(e^(1/2) - 1) = 1.54149...
    coeff = 60 * upper_bound_balanced_bipartite(60)
    assert abs(float(coeff) - 1.5415) < 1e-3


# ============================================================
# general_upper_bound: min(max_degree/|E|, 1/matching_number)
# ============================================================

def test_general_upper_bound_plugins():
    k4 = make_graph("complete", [4])
    assert general_upper_bound(k4) == F(1, 2)      # min(3/6, 1/2)
    star4 = make_graph("star", [4])
    assert general_upper_bound(star4) == F(1, 1)   # min(4/4, 1/1)
    k3 = make_graph("complete", [3])
    assert general_upper_bound(k3) == F(2, 3)      # min(2/3, 1/1)


def test_general_upper_bound_rejects_multigraph():
    g = make_graph("complete", [3]).extend(2)
    with pytest.raises(ParameterError):
        general_upper_bound(g)


# ============================================================
# prior bounds
# ============================================================

def test_prior_bounds_values():
    b3 = prior_bounds_complete(3)
    assert b3["sadeh_upper"] == F(1, 2)
    assert b3["sadeh_lower"] == F(4, 9)
    assert b3["kong_lower"] == F(1, 2)
    b4 = prior_bounds_complete(4)
    assert b4["sadeh_upper"] == F(2, 5)
    assert b4["sadeh_lower"] == F(2, 7)       # 8 / (7*4)
    assert b4["kong_lower"] == F(1, 3)        # 6 / ((5 - 1/2) * 4)


def test_upper_beats_sadeh_for_n_ge_4():
    assert upper_bound_complete(3) == prior_bounds_complete(3)["sadeh_upper"]
    for n in range(4, 41):
        assert upper_bound_complete(n) < prior_bounds_complete(n)["sadeh_upper"]


def test_rate_between_kong_and_upper():
    for n in range(3, 41):
        r = rate(n)
        assert prior_bounds_complete(n)["kong_lower"] <= r
        assert r <= upper_bound_complete(n)


# ============================================================
# multigraph lower bound
# ============================================================

def test_multigraph_lower_bound_values():
    assert multigraph_lower_bound(F(1, 2), 2) == F(1, 3)
    assert multigraph_lower_bound(F(7, 20), 2) == F(7, 30)
    # r=1 is the identity
    assert multigraph_lower_bound(F(84, 305), 1) == F(84, 305)


def test_multigraph_lower_bound_rejects_bad_r():
    with pytest.raises(ParameterError):
        multigraph_lower_bound(F(1, 2), 0)


# ============================================================
# bounds_table + rendering
# ============================================================

def test_table_lower_column_decimals():
    expected = ["0.50000", "0.35000", "0.27541", "0.22868",
                "0.19583", "0.17111", "0.15198", "0.13657"]
    reports = bounds_table(3, 10)
    got = [decimal_str(r.lower) for r in reports]
    assert got == expected


def test_decimals_round_the_exact_fraction_once():
    # within 10^-45 of a rounding edge, a 35-digit quotient rounded again
    # would land on the wrong side of it
    assert decimal_str(F(1, 200000) + F(1, 10 ** 45)) == "0.00001"
    assert decimal_str(F(3, 200000) - F(1, 10 ** 45)) == "0.00001"
    # ties go to even, and a tiny negative value keeps its sign
    assert decimal_str(F(1, 200000)) == "0.00000"
    assert decimal_str(F(3, 200000)) == "0.00002"
    assert decimal_str(-F(1, 10 ** 45)) == "-0.00000"
    assert decimal_str(F(-84, 305)) == "-0.27541"
    assert decimal_str(F(123456789, 7)) == "17636684.14286"


def test_table_exact_lowers_small_n():
    reports = {r.n: r for r in bounds_table(3, 6)}
    assert reports[3].lower == F(1, 2)
    assert reports[4].lower == F(7, 20)
    assert reports[5].lower == F(84, 305)
    assert reports[6].lower == F(126, 551)


def test_report_consistency():
    for r in bounds_table(3, 12):
        assert isinstance(r, BoundReport)
        assert r.lower <= r.upper
        assert r.coefficient_upper == r.n * r.upper
        assert r.coefficient_lower == r.n * r.lower


def test_csv_render_columns():
    text = render_table(bounds_table(3, 5), fmt="csv")
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == "n,upper,lower,upper_coeff,lower_coeff"
    assert len(rows) == 4
    first = rows[1].split(",")
    assert first[0] == "3"
    assert first[1] == "0.50000"
    assert first[2] == "0.50000"


def test_markdown_render():
    text = render_table(bounds_table(3, 4), fmt="markdown")
    assert "|" in text and "upper" in text
    assert "0.35294" in text


def test_table_columns_match_the_single_bounds():
    for r in bounds_table(5, 30):
        assert r.upper == upper_bound_complete(r.n)
        assert r.lower == rate(r.n)


def test_table_cap_edge():
    (last,) = bounds_table(BOUNDS_CAP, BOUNDS_CAP)
    assert last.n == BOUNDS_CAP
    assert last.lower == rate(BOUNDS_CAP) < last.upper
    with pytest.raises(UnsupportedSizeError, match=f"n = {BOUNDS_CAP}"):
        bounds_table(3, BOUNDS_CAP + 1)
