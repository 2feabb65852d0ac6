"""The value-matrix rank of the p-parts, for test oracles.

The certificate reads its ranks off the exact degrees that
`check_structure` proves: parts of distinct exact degrees are linearly
independent as polynomials in the color.  The tests check that count
against an independent rank: evaluate each part at a few more integer
colors than there are parts and take the exact rank of the resulting
integer matrix.  That rank engine lives here: a modular full-rank
witness with a fraction-free (Bareiss) fallback.
"""

import operator

from skeindim.exact import UnivariatePolynomial, _horner
from skeindim.verlinde import decompose

#: Extra value columns beyond the minimal square matrix, so a rank
#: deficiency would be a genuine property rather than bad truncation.
RANK_COLUMN_SLACK = 2

#: The primes of the modular full-rank witness in `rank`, tried in turn.
#: 2^61 - 1 is not among them: the odd-color matrix loses rank modulo it.
WITNESS_PRIMES = (2**62 - 57, 2**63 - 25)


def phi_rank(g: int, kind: str) -> int:
    """Exact rank of the value matrix of the p-power decomposition of
    genus g: the parts of `decompose`, ordered by p-exponent, evaluated at
    RANK_COLUMN_SLACK more colors than there are parts."""
    return rank(value_rows(decompose(g, kind), kind))


def value_rows(parts: dict[int, UnivariatePolynomial], kind: str) -> list[list[int]]:
    """The value matrix of the p-parts {j: part at p^j} of the even or odd
    kind with each row scaled to integers: every part is evaluated at
    c = 0, 1, ... (even) or s = 1, 2, ... (odd) by Horner's rule on its
    numerators, that is, scaled by its denominator, which leaves the rank
    unchanged."""
    columns = len(parts) + RANK_COLUMN_SLACK
    arguments = range(columns) if kind == "even" else range(1, columns + 1)
    return [[_horner(parts[j].numerators, a, 1) for a in arguments] for j in sorted(parts)]


def rank(rows: list[list[int]]) -> int:
    """Exact rank of a matrix of integer rows.

    First a modular witness: if the rank modulo a prime q in
    WITNESS_PRIMES is full, that is min(rows, columns), some minor of that
    size is nonzero modulo q, hence nonzero over the integers, and the
    rank over Q is full too.  Otherwise fraction-free (Bareiss)
    elimination decides it: each step divides by the previous pivot, so
    intermediate entries stay minors of the input.  A non-int entry raises
    TypeError, as the reduction and the floor division would silently
    misrank Fractions.  The primes are read from this module at each
    call, so a test can patch them away to force the fallback.
    """
    m = [[operator.index(x) for x in row] for row in rows]
    if not m or not m[0]:
        raise ValueError("matrix must have at least one row and one column")
    n_rows, n_cols = len(m), len(m[0])
    if any(len(row) != n_cols for row in m):
        raise ValueError("all rows must have the same length")
    full = min(n_rows, n_cols)
    if any(rank_mod(m, q) == full for q in WITNESS_PRIMES):
        return full
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, n_rows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, n_rows):
            factor = m[i][col]
            for j in range(col + 1, n_cols):
                m[i][j] = (m[i][j] * pivot - factor * m[rank][j]) // prev_pivot
            m[i][col] = 0
        prev_pivot = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank_mod(m: list[list[int]], q: int) -> int:
    """Rank of the integer rows m over the field of q elements, q prime,
    by Gaussian elimination on the residues; m is left unchanged."""
    rows = [[x % q for x in row] for row in m]
    rank = 0
    for col in range(len(rows[0])):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col:]
        inverse = pow(pivot[0], -1, q)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inverse % q
            if factor:
                rows[i][col:] = [(a - factor * b) % q for a, b in zip(rows[i][col:], pivot)]
        rank += 1
        if rank == len(rows):
            break
    return rank
