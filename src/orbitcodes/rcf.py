"""Rational canonical forms from the characteristic polynomial and kernel ranks.

char_poly reduces A to Hessenberg form by similarity and expands det(xI - H)
over its leading minors (Cohen, A Course in Computational Algebraic Number
Theory, 2.2).  For each irreducible p of it, the number of elementary
divisors p^e with e >= j is (rank p(A)^(j-1) - rank p(A)^j) / deg p.
elementary_divisors forms p(A) and its powers on the packed rows of
rows.py (Horner, with each coefficient added into the diagonal slots) and
reads each rank from the count of the kernel's pivots; no Mat product or
rref runs.  evaluate_poly_at_matrix, p(A) by Mat products, is verify's
oracle evaluator: its Cayley-Hamilton, minimal-polynomial and kernel-rank
checks call it.

Divisor sequences are kept in one canonical total order -- ascending by
(deg p, coefficient code of p, exponent descending) -- so two matrices A
and B are conjugate exactly when rcf(A) == rcf(B).
elementary_divisors and classify's cell walk build their tuples in it;
rcf_from_divisors is the one place a divisor list is sorted.  A canonical
form is its divisor tuple: rcf(a) returns elementary_divisors(a) once
check_invertible has passed them, and is the one place a matrix's
divisors are read and checked.  A caller that needs the block diagonal
diag(companion(p_i^e_i)) builds it with matrix.companion_diag.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import SingularMatrixError
from .matrix import Mat
from .poly import Poly, factor
from .rows import _kernel


def char_poly(a: Mat) -> Poly:
    """Characteristic polynomial det(xI - A), through a Hessenberg form."""
    if not a.is_square:
        raise ValueError("a characteristic polynomial needs a square matrix")
    add, mul, neg, inv = a.field.lookups
    n = a.rows
    h = [list(a.row(i)) for i in range(n)]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        t = inv[h[m][m - 1]]
        for i in range(m + 1, n):
            u = mul[h[i][m - 1]][t]
            if u:
                # row i -= u row m, then column m += u column i
                scale = mul[neg[u]]
                h[i] = [add[v][scale[w]] for v, w in zip(h[i], h[m])]
                scale = mul[u]
                for row in h:
                    row[m] = add[row[m]][scale[row[i]]]
    # chi_{m+1} = x chi_m - sum_{i<=m} h_im t_i chi_i, t_i = h_{m,m-1} ... h_{i+1,i}
    chis = [[1]]
    for m in range(n):
        out = [0] + chis[m]
        t = 1
        for i in range(m, -1, -1):
            scale = mul[neg[mul[t][h[i][m]]]]
            for k, v in enumerate(chis[i]):
                out[k] = add[out[k]][scale[v]]
            t = mul[t][h[i][i - 1]] if i else 0
            if not t:
                break
        chis.append(out)
    return Poly._trusted(a.field, chis[n])


def evaluate_poly_at_matrix(f: Poly, a: Mat) -> Mat:
    """f(A) by Horner's rule, for any f over A's field: the zero polynomial
    gives the zero matrix and a constant c gives cI.  Horner starts from
    (lead f) A, so a monic f of degree d >= 1 makes d - 1 products."""
    if not a.is_square:
        raise ValueError("a polynomial is evaluated at square matrices only")
    if f.field != a.field:
        raise ValueError("the polynomial and the matrix need the same field")
    add, mul = a.field.lookups[:2]
    n = a.rows
    *low, lead = f.coeffs or (0,)
    out = a if low else Mat.identity(a.field, n)
    if lead != 1:
        out = Mat._trusted(a.field, n, n, tuple(mul[lead][v] for v in out.entries))
    for k in range(len(low) - 1, -1, -1):
        entries = list(out.entries)
        for i in range(0, n * n, n + 1):
            entries[i] = add[entries[i]][low[k]]
        out = Mat._trusted(a.field, n, n, tuple(entries))
        if k:
            out = out * a
    return out


def invariant_factors(a: Mat) -> tuple[Poly, ...]:
    """Nonunit invariant factors of xI - A, monic, in divisibility order."""
    powers: dict[Poly, list[Poly]] = {}
    for p, e in elementary_divisors(a):  # each p's exponents descend
        powers.setdefault(p, []).append(p**e)
    one = Poly.one(a.field)
    rows = itertools.zip_longest(*powers.values(), fillvalue=one)
    return tuple(reversed([math.prod(row, start=one) for row in rows]))


def min_poly(a: Mat) -> Poly:
    """Minimal polynomial: the largest invariant factor."""
    return invariant_factors(a)[-1]


def divisor_key(pe: tuple[Poly, int]) -> tuple[int, int, int]:
    p, e = pe
    return (int(p.degree), p.code(), -e)


def _packed_poly_at(kern, p: Poly, key: tuple) -> tuple:
    """The key of p(A) for a monic p of degree >= 1, from the key of A on
    a rows kernel: Horner from A, each coefficient added into the diagonal
    slots, deg p - 1 products."""
    *low, _ = p.coeffs
    out = key
    for k in range(len(low) - 1, -1, -1):
        if low[k]:
            out = kern.plus_scalar(out, low[k])
        if k:
            out = kern.product(out, key)
    return out


@functools.lru_cache(maxsize=8192)
def elementary_divisors(a: Mat) -> tuple[tuple[Poly, int], ...]:
    """Canonically ordered (irreducible, exponent) pairs of a square matrix:
    each p in factor's (degree, code) order, its exponents from the largest
    down, which is divisor_key order with nothing sorted.

    Unlike rcf(), this does not reject singular matrices; divisors with
    irreducible part x mark exactly the singular case.
    """
    chi = char_poly(a)
    n = a.rows
    if not n:
        return ()
    kern = _kernel(a.field, n)
    key = kern.key(a)
    pairs = []
    for p, _ in factor(chi):
        d = int(p.degree)
        base = power = _packed_poly_at(kern, p, key)
        ranks = [n, len(kern.pivots(base))]
        # until the ranks stop falling, not up to p's multiplicity in chi, so
        # that the degree sum below checks the ranks against chi
        while ranks[-1] < ranks[-2]:
            power = kern.product(power, base)
            ranks.append(len(kern.pivots(power)))
        # at_least[j - 1]: how many divisors p^e have e >= j; the last is 0
        at_least = [(hi - lo) // d for hi, lo in zip(ranks, ranks[1:])]
        for j in range(len(at_least) - 1, 0, -1):
            pairs.extend([(p, j)] * (at_least[j - 1] - at_least[j]))
    if sum(int(p.degree) * e for p, e in pairs) != n:
        raise AssertionError("elementary divisor degrees do not sum to the matrix size")
    return tuple(pairs)


def rcf_from_divisors(divisors) -> tuple[tuple[Poly, int], ...]:
    """The canonical tuple of (irreducible, exponent) pairs in any order:
    the pairs sorted by divisor_key."""
    pairs = tuple(sorted(divisors, key=divisor_key))
    if not pairs:
        raise ValueError("at least one elementary divisor is required")
    return pairs


def check_invertible(divisors) -> None:
    """Reject elementary divisors with a power of x among them: their
    matrices are singular, outside GL_n."""
    for p, _ in divisors:
        if p.coeffs == (0, 1):
            raise SingularMatrixError(
                "matrix is singular (an elementary divisor is a power of x), not in GL_n"
            )


def rcf(a: Mat) -> tuple[tuple[Poly, int], ...]:
    """Rational canonical form of an invertible matrix: its canonical
    elementary divisor tuple, as elementary_divisors emits it.

    Rejects singular input (an elementary divisor would be a power of x,
    putting the matrix outside GL_n) with SingularMatrixError.
    """
    divisors = elementary_divisors(a)
    check_invertible(divisors)
    return divisors

