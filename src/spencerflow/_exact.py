"""Exact rational linear algebra on sparse rows: rank and nullspace.

A matrix is a list of rows, each a {column: value} map of ints or Fractions
(a dense row `r` converts as `dict(enumerate(r))`). Elimination is
fraction-free: each row is cleared of denominators, then reduced against the
pivot keyed by its leading column (cross-multiplied, then divided by the gcd
of its entries) until it is zero or becomes a new pivot.
"""

from fractions import Fraction
from math import gcd, lcm


def _integer_row(row):
    """Row times the lcm of its denominators, zeros dropped; floats refused."""
    if any(isinstance(v, float) for v in row.values()):
        raise ValueError("exact rows take ints and Fractions, not floats")
    row = {c: Fraction(v) for c, v in row.items() if v}
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


def _eliminate(rows):
    """Echelon form of the rows as {leading column: integer row}."""
    pivots = {}
    for row in map(_integer_row, rows):
        while row and (lead := min(row)) in pivots:
            piv = pivots[lead]
            f = gcd(piv[lead], row[lead])
            a, b = piv[lead] // f, row[lead] // f
            row = {c: x for c in row.keys() | piv.keys()
                   if (x := a * row.get(c, 0) - b * piv.get(c, 0))}
            f = gcd(*row.values())
            row = {c: v // f for c, v in row.items()}
        if row:
            pivots[min(row)] = row
    return pivots


def rank(rows):
    """Exact rank of a matrix given as a list of sparse rows."""
    return len(_eliminate(rows))


def nullspace(rows, n_cols):
    """Basis (dense Fraction vectors) of the right nullspace: one vector per
    free column f, 1 at f and 0 at the other free columns, by back-substitution
    through the echelon rows."""
    pivots = _eliminate(rows)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        vec = {f: Fraction(1)}
        for p in sorted(pivots, reverse=True):
            row = pivots[p]
            vec[p] = Fraction(-sum(v * vec.get(c, 0) for c, v in row.items()), row[p])
        basis.append([vec.get(c, Fraction(0)) for c in range(n_cols)])
    return basis
