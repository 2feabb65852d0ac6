"""General inverses in Q(zeta_2p) by the extended Euclidean algorithm.

The package inverts only root differences A^u - A^v with an even gap, in
closed form (`CyclotomicField.root_difference_inverse`); this inverse
works for any nonzero element and serves the tests as its oracle.
"""

from fractions import Fraction
from typing import Sequence

from skeindim.exact import _convolve


def _poly_divmod(
    num: Sequence[Fraction], den: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    lead_inv = Fraction(1) / den[-1]
    for k in range(len(q) - 1, -1, -1):
        coeff = num[k + len(den) - 1] * lead_inv
        q[k] = coeff
        if coeff:
            for i, d in enumerate(den):
                num[k + i] -= coeff * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


def euclid_inverse(x):
    """Multiplicative inverse of the cyclotomic element x by the extended
    Euclidean algorithm against the (irreducible) modulus."""
    if not x:
        raise ZeroDivisionError("zero has no inverse")
    # invert the numerator vector; the denominator multiplies back in.
    # r0 = numerators, r1 = modulus; track u with u * r0 = r (mod modulus)
    r0 = [Fraction(n) for n in x.numerators]
    r1 = [Fraction(c) for c in x.field.modulus]
    u0: list[Fraction] = [Fraction(1)]
    u1: list[Fraction] = []
    while any(r1):
        q, r = _poly_divmod(r0, r1)
        # u_next = u0 - q * u1
        prod = _convolve(q, u1)
        u_next = u0 + [0] * (len(prod) - len(u0))
        for i, c in enumerate(prod):
            u_next[i] -= c
        r0, r1 = r1, r
        u0, u1 = u1, u_next
    while r0 and r0[-1] == 0:
        r0.pop()
    if len(r0) != 1:
        raise ArithmeticError("modulus is not coprime to the element")
    scale = x.denominator / r0[0]
    return x.field.element([c * scale for c in u0])
