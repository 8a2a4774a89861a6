"""Recursion ledger behind the complete-graph scheme construction.

Three interlocking sequences drive the construction on n servers:

  x_k  summations of length k created per (desired server, helper set) pair,
  y_k  portion of the previous step's 2-sided residual still unconsumed,
  z_k  portion of the previous step's 1-sided residual still unconsumed,

with a regime change at k0 = floor(n/2) + 2 where the residual supply
becomes the binding constraint.  Everything is exact rational arithmetic;
the integer scale M clears all denominators so that the builder can emit
whole numbers of summations.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (InternalConsistencyError, ParameterError,
                     UnsupportedSizeError, check_int)

BUILDER_CAP = 8  # explicit scheme emission is supported up to n = 8
BOUNDS_CAP = 500  # largest n of the sequences and of a bound table


def check_n(n):
    """`n` when it is an integer >= 3, the K_n sizes the paper covers."""
    if check_int(n, "n") < 3:
        raise ParameterError(f"K_n needs n >= 3, got {n}")
    return n


def _check_size(n):
    if check_n(n) > BOUNDS_CAP:
        raise UnsupportedSizeError(f"sequences stop at n = {BOUNDS_CAP}, "
                                   f"got n = {n}")


def dfact(m):
    """Double factorial over odd integers; empty products are 1."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


# ============================================================
# the recursions
# ============================================================

def _scaled_xz(n):
    """x_k and z_k for k = 1..n-1 as unreduced (numerator, denominator)
    pairs of integers, and k0.

    Below k0, X_k = 2^(k-1) x_k and Z_k = 2^(k-1) z_k are integers:
    X_k = (n-k+1) X_{k-1} + 2 Z_{k-1} and Z_k = X_k - (k-1) X_{k-1}.  From
    k0 on z is zero, so x_k is x_{k0-1} + z_{k0-1} times the running
    product of (i-1)/(2i-n) over i = k0..k.
    """
    _check_size(n)
    k0 = n // 2 + 2
    x = {1: (1, 1)}
    z = {1: (1, 1)}
    big_x, big_z = 1, 1
    for k in range(2, min(n, k0)):
        big_x, prev = (n - k + 1) * big_x + 2 * big_z, big_x
        big_z = big_x - (k - 1) * prev
        x[k] = (big_x, 2 ** (k - 1))
        if k <= n - 2:
            z[k] = (big_z, 2 ** (k - 1))
    num, den = big_x + big_z, 2 ** (k0 - 2)
    for k in range(k0, n):
        num *= k - 1
        den *= 2 * k - n
        x[k] = (num, den)
        if k <= n - 2:
            z[k] = (0, 1)
    return x, z, k0


@functools.lru_cache(maxsize=None)
def _raw_sequences(n):
    xs, zs, k0 = _scaled_xz(n)
    x = {k: Fraction(*v) for k, v in xs.items()}
    z = {k: Fraction(*v) for k, v in zs.items()}
    y = {2: Fraction(n - 3, 2)}
    for k in range(3, n):
        y[k] = x[k] - 2 * x[k - 1] + Fraction(k - 2, n - k) * y[k - 1]
    return x, y, z, k0


# ============================================================
# per-step application ledger (normalized to M = 1)
# ============================================================

@dataclass(frozen=True)
class StepCounts:
    k: int
    alpha_per: Fraction
    alpha_realizations: int
    beta_per: Fraction
    beta_realizations: int
    gamma_per: Fraction
    gamma_realizations: int
    zeta_per: Fraction
    zeta_realizations: int
    leftover_per_type: Fraction


@functools.lru_cache(maxsize=None)
def step_ledger(n):
    """Application counts per realization for every step k = 2..n-1."""
    x, y, z, k0 = _raw_sequences(n)
    zero = Fraction(0)
    out = []
    for k in range(2, n):
        pairs = 2 * math.comb(n - 2, k - 1)  # (desired server, helper set)

        alpha_per = z[k - 1]
        alpha_realizations = pairs

        if k >= 3:
            if k % 2:
                beta_realizations = pairs * dfact(k - 2)
                beta_total = (Fraction(n - 2) * math.comb(n - 3, k - 3)
                              * y[k - 1] / (k - 1))
            else:
                beta_realizations = pairs * (k - 1) * dfact(k - 3)
                beta_total = (Fraction(n - 2) * math.comb(n - 3, k - 3)
                              * y[k - 1] / (k - 2))
            beta_per = beta_total / beta_realizations
        else:
            beta_total = beta_per = zero
            beta_realizations = 0

        gamma_per = x[k - 1] - beta_total / pairs
        if gamma_per < 0:
            raise InternalConsistencyError(
                f"negative gamma supply at n={n} k={k}")
        gamma_realizations = pairs

        if k <= n - 2:
            zeta_realizations = pairs * (n - 1 - k)
            if k < k0:
                zeta_per = x[k - 1] / 2
            else:
                zeta_per = (x[k - 1] + z[k - 1]) / (2 * k - n)
            leftover_per_type = x[k - 1] - 2 * zeta_per
            if leftover_per_type < 0:
                raise InternalConsistencyError(
                    f"over-consumed side types at n={n} k={k}")
        else:
            zeta_per = leftover_per_type = zero
            zeta_realizations = 0

        out.append(StepCounts(
            k=k,
            alpha_per=alpha_per, alpha_realizations=alpha_realizations,
            beta_per=beta_per, beta_realizations=beta_realizations,
            gamma_per=gamma_per, gamma_realizations=gamma_realizations,
            zeta_per=zeta_per, zeta_realizations=zeta_realizations,
            leftover_per_type=leftover_per_type,
        ))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def scaling_M(n):
    """Smallest integer scale making every ledger quantity integral."""
    x, y, z, _ = _raw_sequences(n)
    denominators = [v.denominator
                    for v in (*x.values(), *y.values(), *z.values())]
    for st in step_ledger(n):
        denominators += [st.alpha_per.denominator, st.beta_per.denominator,
                         st.gamma_per.denominator, st.zeta_per.denominator,
                         st.leftover_per_type.denominator]
    return math.lcm(*denominators)


# ============================================================
# assembled ledger and derived quantities
# ============================================================

@dataclass(frozen=True)
class SequenceLedger:
    n: int
    x: dict
    y: dict
    z: dict
    k0: int
    m_scale: int
    subpacketization: int


@functools.lru_cache(maxsize=None)
def build_sequences(n):
    x, y, z, k0 = _raw_sequences(n)
    m = scaling_M(n)
    total = 2 * sum(math.comb(n - 2, k - 1) * x[k] for k in range(1, n)) * m
    if total.denominator != 1:
        raise InternalConsistencyError(f"non-integer subpacketization at n={n}")
    return SequenceLedger(n=n, x=dict(x), y=dict(y), z=dict(z), k0=k0,
                          m_scale=m, subpacketization=int(total))


def subpacketization(n):
    """Number of subfiles each file is split into."""
    return build_sequences(n).subpacketization


def answer_count(n):
    """Summations downloaded from each server."""
    x, _, _, _ = _raw_sequences(n)
    m = scaling_M(n)
    total = sum(math.comb(n - 1, k) * x[k] for k in range(1, n)) * m
    if total.denominator != 1:
        raise InternalConsistencyError(f"non-integer answer count at n={n}")
    return int(total)


def rate(n):
    """Exact rate of the construction; the scale M cancels.

    Each denominator of _scaled_xz divides the next, so both sums are kept
    as integers over the current one (Horner style), with running
    binomials.  The common denominator cancels in the quotient, the only
    Fraction built.
    """
    x, _, _ = _scaled_xz(n)
    created = downloaded = 0
    below, at = 1, n - 1  # C(n-2, k-1) and C(n-1, k) at k = 1
    prev = 1
    for k in range(1, n):
        num, den = x[k]
        grow, prev = den // prev, den
        created = created * grow + below * num
        downloaded = downloaded * grow + at * num
        below = below * (n - 1 - k) // k
        at = at * (n - 1 - k) // (k + 1)
    return Fraction(2 * created, n * downloaded)
