"""
Exact decisions and fixed points of the recursions ``b <= M b + N``: the
reference the tests hold ``rho_below`` and ``solve_recursion`` to on the
floats the builders computed.

Every float is exactly a rational number, so ``fractions.Fraction`` reads
``M`` and ``N`` with no rounding, and the answer is that of the given
floats.  Not collected by pytest; the test modules import it.
"""

from fractions import Fraction
from typing import List, Optional


def exact_fixed_point(M, N) -> Optional[List[Fraction]]:
    """
    The greatest fixed point ``b*`` of ``b <= M b + N`` for a nonnegative
    ``M``, or ``None`` when ``rho(M) >= 1``.  Gaussian elimination of
    ``(I - M) b = N`` with no pivoting: ``I - M`` is a Z-matrix, and it is a
    nonsingular M-matrix, that is ``rho(M) < 1``, exactly when every pivot
    is positive (A. Berman and R. J. Plemmons, *Nonnegative Matrices in the
    Mathematical Sciences*, ch. 6: its leading principal minors are
    positive).  ``b*`` is then ``(I - M)^-1 N``.
    """
    size = len(N)
    rows = [
        [Fraction(int(r == c)) - Fraction(m) for c, m in enumerate(row)] + [Fraction(n)]
        for r, (row, n) in enumerate(zip(M.tolist(), N.tolist()))
    ]
    for k, pivot_row in enumerate(rows):
        if pivot_row[k] <= 0:
            return None
        for row in rows[k + 1:]:
            factor = row[k] / pivot_row[k]
            if factor:
                row[k:] = [a - factor * p for a, p in zip(row[k:], pivot_row[k:])]
    b = [Fraction(0)] * size
    for k in reversed(range(size)):
        row = rows[k]
        b[k] = (row[size] - sum(row[c] * b[c] for c in range(k + 1, size))) / row[k]
    return b
