"""Dense exact matrix inversion over a field (the Fraction transition tables).

Deterministic Gauss-Jordan: pivot on the first row with a nonzero entry in the
current column.  Entries only need +, -, *, /, truthiness, and a `one` sample.
"""

from __future__ import annotations

__all__ = ["invert_matrix"]


def invert_matrix(rows, one):
    """Inverse of a square matrix given as a list of row lists."""
    n = len(rows)
    zero = one - one
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = one / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
