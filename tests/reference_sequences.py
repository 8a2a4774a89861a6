"""Reference closed form of x_k, independent of the recursion.

`pirlab.sequences` computes x_k by its recursion; the tests compare that
with this direct evaluation of the alternating-sum formula.
"""

import math
from fractions import Fraction

from pirlab.errors import ParameterError
from pirlab.sequences import check_n


def closed_form_x(n, k):
    """Direct evaluation of x_k (independent of the recursion)."""
    check_n(n)
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k must be in 1..{n - 1}, got {k}")
    k0 = n // 2 + 2

    def falling(j):
        # (n+3)! / (2^j (n-j+3)!) as an exact fraction
        num = 1
        for i in range(n - j + 4, n + 4):
            num *= i
        return Fraction(num, 2**j)

    if k < k0:
        return sum(falling(j) * (-1) ** (k - j - 1) * math.comb(k - 1, j)
                   for j in range(k))
    prefactor = Fraction(1)
    for i in range(k0, k + 1):
        prefactor *= Fraction(i - 1, 2 * i - n)
    body = sum(falling(j) * (-1) ** (k0 - j - 2)
               * Fraction(k0 - j + 2, 2) * math.comb(k0 - 2, j)
               for j in range(k0 - 1))
    return prefactor * body
