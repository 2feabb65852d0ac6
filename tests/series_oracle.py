"""Truncated power series as plain coefficient lists, for test oracles.

A series is a list whose entry k is the coefficient of t^k, exact through
t^(len - 1).  Coefficients may be ints, Fractions or polynomials: anything
with +, * and unary minus that mixes with the int 0.
"""


def series_mul(a, b):
    """Product of two series, exact through the shorter order."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b)))]


def series_inverse(a):
    """Inverse of a series with constant term 1, through the same order."""
    assert a[0] == 1, "series inverse needs constant term 1"
    inverse = [a[0]]
    for m in range(1, len(a)):
        inverse.append(-sum(a[k] * inverse[m - k] for k in range(1, m + 1)))
    return inverse
