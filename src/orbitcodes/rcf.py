"""Rational canonical forms via the Smith normal form of xI - A.

The Smith reduction works over F_q[x] with elementary row/column operations
(swaps, scaling by nonzero constants, adding polynomial multiples), driving
the (t, t) entry to a minimal-degree pivot that divides everything below and
to the right.  The nonunit diagonal entries are the invariant factors
d_1 | d_2 | ... ; factoring them yields the elementary divisors p^e.

Divisor sequences are kept in one canonical total order -- ascending by
(deg p, coefficient code of p, exponent descending) -- so two matrices are
conjugate exactly when their divisor tuples compare equal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import SingularMatrixError
from .field import GF
from .matrix import Mat, block_diag, companion
from .poly import Poly, factor


def _char_matrix(a: Mat) -> list[list[Poly]]:
    """xI - A as a mutable grid of polynomials."""
    F = a.field
    n = a.rows
    x = Poly.x(F)
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            c = Poly.constant(F, F.neg(a.entry(i, j)))
            row.append(x + c if i == j else c)
        grid.append(row)
    return grid


def _smith_diagonal(grid: list[list[Poly]]) -> list[Poly]:
    """Diagonalize a square polynomial grid in place; returns the monic
    diagonal in divisibility order (units included as 1)."""
    n = len(grid)
    for t in range(n):
        while True:
            # minimal-degree nonzero entry of the trailing submatrix
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    e = grid[i][j]
                    if not e.is_zero and (best is None or e.degree < grid[best[0]][best[1]].degree):
                        best = (i, j)
            if best is None:
                return [grid[i][i].monic() if not grid[i][i].is_zero else grid[i][i] for i in range(n)]
            bi, bj = best
            if bi != t:
                grid[t], grid[bi] = grid[bi], grid[t]
            if bj != t:
                for row in grid:
                    row[t], row[bj] = row[bj], row[t]
            pivot = grid[t][t]
            clean = True
            for i in range(t + 1, n):
                if not grid[i][t].is_zero:
                    q = grid[i][t] // pivot
                    if not q.is_zero:
                        grid[i] = [a - q * b for a, b in zip(grid[i], grid[t])]
                    if not grid[i][t].is_zero:
                        clean = False  # a remainder of smaller degree appeared
            for j in range(t + 1, n):
                if not grid[t][j].is_zero:
                    q = grid[t][j] // pivot
                    if not q.is_zero:
                        for row_i in range(n):
                            grid[row_i][j] = grid[row_i][j] - q * grid[row_i][t]
                    if not grid[t][j].is_zero:
                        clean = False
            if not clean:
                continue
            # pivot must divide the rest of the submatrix
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if not (grid[i][j] % pivot).is_zero:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            grid[t] = [a + b for a, b in zip(grid[t], grid[offender])]
    return [grid[i][i].monic() if not grid[i][i].is_zero else grid[i][i] for i in range(n)]


def invariant_factors(a: Mat) -> tuple[Poly, ...]:
    """Nonunit invariant factors of xI - A, monic, in divisibility order."""
    if not a.is_square:
        raise ValueError("invariant factors need a square matrix")
    diag = _smith_diagonal(_char_matrix(a))
    out = [d for d in diag if d.degree >= 1]
    out.sort(key=lambda f: f.degree)
    for lo, hi in zip(out, out[1:]):
        if not (hi % lo).is_zero:
            raise AssertionError("Smith reduction broke the divisibility chain")
    return tuple(out)


def char_poly(a: Mat) -> Poly:
    """Characteristic polynomial: product of all invariant factors."""
    out = Poly.one(a.field)
    for f in invariant_factors(a):
        out = out * f
    return out


def min_poly(a: Mat) -> Poly:
    """Minimal polynomial: the largest invariant factor."""
    return invariant_factors(a)[-1]


def divisor_key(pe: tuple[Poly, int]) -> tuple[int, int, int]:
    p, e = pe
    return (int(p.degree), p.code(), -e)


def poly_key(p: Poly) -> tuple[int, int]:
    return (int(p.degree), p.code())


@dataclass(frozen=True)
class RcfData:
    """A rational canonical form: canonical (irreducible, exponent) pairs and
    the block diagonal of their companion matrices."""

    divisors: tuple[tuple[Poly, int], ...]
    n: int
    matrix: Mat


@functools.lru_cache(maxsize=8192)
def elementary_divisors(a: Mat) -> tuple[tuple[Poly, int], ...]:
    """Canonically ordered (irreducible, exponent) pairs of a square matrix.

    Unlike rcf(), this does not reject singular matrices; divisors with
    irreducible part x mark exactly the singular case.
    """
    pairs = []
    for f in invariant_factors(a):
        pairs.extend(factor(f))
    pairs.sort(key=divisor_key)
    return tuple(pairs)


def rcf_from_divisors(field: GF, divisors) -> RcfData:
    """Assemble the canonical form for given (irreducible, exponent) pairs."""
    pairs = sorted(divisors, key=divisor_key)
    if not pairs:
        raise ValueError("at least one elementary divisor is required")
    blocks = [companion(p**e) for p, e in pairs]
    m = block_diag(blocks)
    return RcfData(tuple(pairs), m.rows, m)


def check_invertible(divisors) -> None:
    """Reject elementary divisors with a power of x among them: their
    matrices are singular, outside GL_n."""
    for p, _ in divisors:
        if p == Poly.x(p.field):
            raise SingularMatrixError(
                "matrix is singular (an elementary divisor is a power of x), not in GL_n"
            )


def rcf(a: Mat) -> RcfData:
    """Rational canonical form of an invertible matrix.

    Rejects singular input (an elementary divisor would be a power of x,
    putting the matrix outside GL_n) with SingularMatrixError.
    """
    divisors = elementary_divisors(a)
    check_invertible(divisors)
    return rcf_from_divisors(a.field, divisors)


def are_conjugate(a: Mat, b: Mat) -> bool:
    """Whether two invertible matrices are conjugate: equal canonical
    divisor sequences."""
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("conjugacy needs matrices of equal size")
    if a.field != b.field:
        raise ValueError("conjugacy needs matrices over the same field")
    return rcf(a).divisors == rcf(b).divisors
