"""Exact rational linear algebra on small dense matrices.

Matrices are lists of lists of exact scalars (int or Fraction).  Everything
here is plain Gaussian elimination; dimensions stay below ~128 so no
cleverness is needed, only exactness.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form (in place). Returns the list of pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = Fraction(1, 1) / pv
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve_affine(a_rows, b):
    """Solve A x = b exactly.

    Returns (particular, kernel_basis) with particular a solution having all
    free variables set to 0, or None when the system is inconsistent.
    """
    if not a_rows:
        return [], []
    ncols = len(a_rows[0])
    aug = [list(row) + [bi] for row, bi in zip(a_rows, b)]
    pivots = rref(aug)
    if ncols in pivots:
        return None  # pivot in the constant column: inconsistent
    pivot_of_col = {c: r for r, c in enumerate(pivots)}
    particular = [Fraction(0)] * ncols
    for c, r in pivot_of_col.items():
        particular[c] = aug[r][ncols]
    free_cols = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for c, r in pivot_of_col.items():
            v[c] = -aug[r][fc]
        basis.append(v)
    return particular, basis


def nullspace(a_rows):
    """Basis of the exact kernel of A."""
    if not a_rows:
        return []
    sol = solve_affine(a_rows, [Fraction(0)] * len(a_rows))
    return sol[1]


def rank(a_rows):
    rows = [list(r) for r in a_rows]
    return len(rref(rows))


def in_span(vectors, target):
    """Whether target lies in the rational span of vectors."""
    if all(x == 0 for x in target):
        return True
    if not vectors:
        return False
    cols = list(zip(*vectors))  # matrix with given vectors as columns
    a_rows = [list(c) for c in cols]
    return solve_affine(a_rows, list(target)) is not None
