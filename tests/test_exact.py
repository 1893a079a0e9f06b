"""Hypothesis properties of the sparse exact elimination, against a dense
Fraction row-echelon oracle."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spencerflow import _exact

ints = st.integers(-3, 3) | st.just(0)
fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))


@st.composite
def matrices(draw, entries):
    """Small dense matrix with zero rows/columns and duplicate rows mixed in."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rows = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    if rows and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n_cols)
    if draw(st.booleans()):
        zero = draw(st.integers(0, n_cols - 1))
        rows = [[0 if j == zero else x for j, x in enumerate(r)] for r in rows]
    return rows, n_cols


any_matrix = matrices(ints) | matrices(fractions) | matrices(ints | fractions)


def row_echelon(rows):
    """Dense oracle: reduce a list of Fraction rows in place to reduced row
    echelon form; return the pivot column indices."""
    if not rows:
        return []
    n_cols = len(rows[0])
    pivots = []
    piv_r = 0
    for piv_c in range(n_cols):
        for i_row in range(piv_r, len(rows)):
            if rows[i_row][piv_c] != 0:
                break
        else:
            continue
        rows[piv_r], rows[i_row] = rows[i_row], rows[piv_r]
        fp = rows[piv_r][piv_c]
        rows[piv_r] = [x / fp for x in rows[piv_r]]
        for r in range(len(rows)):
            if r == piv_r:
                continue
            fr = rows[r][piv_c]
            if fr == 0:
                continue
            rows[r] = [a - b * fr for a, b in zip(rows[r], rows[piv_r])]
        pivots.append(piv_c)
        piv_r += 1
        if piv_r == len(rows):
            break
    return pivots


def oracle_nullspace(rows, n_cols):
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = row_echelon(work)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -work[r][f]
        basis.append(vec)
    return basis


def sparse(rows):
    return [dict(enumerate(r)) for r in rows]


def transpose(rows, n_cols):
    return [[r[j] for r in rows] for j in range(n_cols)]


@given(any_matrix)
def test_rank_matches_dense_oracle(m):
    rows, _ = m
    assert _exact.rank(sparse(rows)) == len(row_echelon([[Fraction(x) for x in r] for r in rows]))


@given(any_matrix)
def test_rank_of_transpose(m):
    rows, n_cols = m
    assert _exact.rank(sparse(rows)) == _exact.rank(sparse(transpose(rows, n_cols)))


@given(any_matrix)
def test_rank_nullity(m):
    rows, n_cols = m
    assert _exact.rank(sparse(rows)) + len(_exact.nullspace(sparse(rows), n_cols)) == n_cols


@given(any_matrix)
def test_nullspace_is_exact_and_matches_oracle(m):
    rows, n_cols = m
    basis = _exact.nullspace(sparse(rows), n_cols)
    for v in basis:
        assert all(type(x) is Fraction for x in v)
        assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows)
    assert basis == oracle_nullspace(rows, n_cols)


def test_sparse_rows_skip_absent_columns():
    # columns missing from every row are free
    assert _exact.rank([{3: 2}, {1: Fraction(1, 3), 3: 1}]) == 2
    assert len(_exact.nullspace([{3: 2}], 5)) == 4


def test_float_entries_rejected():
    with pytest.raises(ValueError, match="float"):
        _exact.rank([{0: 0.5}])
