"""The Bernoulli and e_a tables by their recurrences in per-term Fraction
arithmetic, for test oracles: the library runs the same recurrences on
ints over the lcm of the denominators built so far."""

import math
from fractions import Fraction


def fraction_bernoulli_numbers(max_index):
    """(B_0, ..., B_max_index) by B_n = -1/(n+1) sum_{k<n} binom(n+1, k) B_k."""
    values = [Fraction(1)]
    for n in range(1, max_index + 1):
        acc = sum(math.comb(n + 1, k) * values[k] for k in range(n))
        values.append(-acc / (n + 1))
    return tuple(values)


def fraction_exponential_coefficients(order):
    """e_0..e_order of 2x/(e^(2x)-1) by e_m = -sum_{k=1..m} 2^k/(k+1)! e_(m-k)."""
    values = [Fraction(1)]
    for m in range(1, order + 1):
        values.append(
            -sum(Fraction(2**k, math.factorial(k + 1)) * values[m - k] for k in range(1, m + 1))
        )
    return tuple(values)
