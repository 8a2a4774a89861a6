"""Exact capacity bounds for replicated storage over graphs.

All bounds are returned as Fractions.  The complete-graph upper bound is
1/(n * sum_{i=2..n} 1/i!), the balanced-bipartite bound is
1/(n * sum_{i=1..n/2} 1/(i! 2^i)), and the general bound for simple graphs
is min(max_degree/|E|, 1/matching_number).
"""

import math
from collections import namedtuple
from fractions import Fraction

from .errors import ParameterError, UnsupportedSizeError, check_replication
from .graphs import matching_number
from .render import decimal_str
from .sequences import BOUNDS_CAP, check_n, rate


# ============================================================
# closed-form bounds
# ============================================================

def upper_bound_complete(n):
    (bound,) = _complete_upper_bounds(n, n)
    return bound


def _complete_upper_bounds(n_min, n_max):
    """1/(n * sum_{i=2..n} 1/i!) for n = n_min..n_max, from one running sum.

    T_n = n! * sum_{i=2..n} 1/i! obeys T_n = n T_{n-1} + 1 with T_2 = 1,
    and the bound is (n-1)!/T_n.
    """
    check_n(n_min)
    t, fact = 1, 1
    for n in range(3, n_max + 1):
        t, fact = n * t + 1, fact * (n - 1)
        if n >= n_min:
            yield Fraction(fact, t)


def upper_bound_balanced_bipartite(n):
    if n < 4 or n % 2:
        raise ParameterError(
            f"balanced bipartite bound needs even n >= 4, got {n}")
    total = sum(Fraction(1, math.factorial(i) * 2**i)
                for i in range(1, n // 2 + 1))
    return Fraction(1, n) / total


def general_upper_bound(g):
    if g.multigraph:
        raise ParameterError("general upper bound applies to simple graphs only")
    if not g.edges:
        raise ParameterError("graph has no files")
    by_degree = Fraction(g.max_degree(), len(g.edges))
    by_matching = Fraction(1, matching_number(g))
    return min(by_degree, by_matching)


def prior_bounds_complete(n):
    """Previously published bounds on complete graphs, keyed by source."""
    check_n(n)
    half = Fraction(1, 2)
    return {
        "sadeh_upper": Fraction(2, n + 1),
        "sadeh_lower": Fraction(2 ** (n - 1), (2 ** (n - 1) - 1) * n),
        "kong_lower": 6 / ((5 - half ** (n - 3)) * n),
    }


def multigraph_lower_bound(base_rate, r):
    """Rate achieved after replicating every file r times."""
    check_replication(r)
    return Fraction(base_rate) / (2 - Fraction(1, 2) ** (r - 1))


# ============================================================
# comparison table
# ============================================================

class BoundReport(namedtuple("BoundReport", "n upper lower")):
    __slots__ = ()

    @property
    def coefficient_upper(self):
        return self.n * self.upper

    @property
    def coefficient_lower(self):
        return self.n * self.lower

    @property
    def upper_str(self):
        return decimal_str(self.upper)

    @property
    def lower_str(self):
        return decimal_str(self.lower)


def bounds_table(n_min=3, n_max=10):
    if n_min < 3 or n_max < n_min:
        raise ParameterError(f"need 3 <= n_min <= n_max, got {n_min}..{n_max}")
    if n_max > BOUNDS_CAP:
        raise UnsupportedSizeError(f"bound tables stop at n = {BOUNDS_CAP}, "
                                   f"got n_max = {n_max}")
    uppers = _complete_upper_bounds(n_min, n_max)
    return [BoundReport(n, upper, rate(n))
            for n, upper in zip(range(n_min, n_max + 1), uppers)]


# per format: header lines, then how one row's cells are joined
_TABLE_FORMATS = {
    "csv": (["# capacity bounds for complete storage graphs",
             "# upper: converse bound, lower: achieved scheme rate",
             "n,upper,lower,upper_coeff,lower_coeff"],
            ",".join),
    "markdown": (["| n | upper | lower | n*upper | n*lower |",
                  "| --- | --- | --- | --- | --- |"],
                 lambda cells: "| " + " | ".join(cells) + " |"),
}


def render_table(reports, fmt="csv"):
    if fmt not in _TABLE_FORMATS:
        raise ParameterError(f"unknown table format {fmt!r}")
    header, join = _TABLE_FORMATS[fmt]
    lines = list(header)
    for r in reports:
        lines.append(join([str(r.n), *map(decimal_str, (
            r.upper, r.lower, r.coefficient_upper, r.coefficient_lower))]))
    return "\n".join(lines) + "\n"
