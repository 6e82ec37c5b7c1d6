"""Small integer helpers, all at trial-division scale, and power, the
library's one square-and-multiply loop."""

from __future__ import annotations

import math
from functools import lru_cache


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=64)
def unit_group_factors(q: int, d: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of q^d - 1, the order of the unit group
    of GF(q^d), primes ascending: one factorize per (q, d) for every
    reader (the orders of groups.py, polykernel's order_of_x)."""
    return tuple(factorize(q**d - 1).items())


def totient(n: int) -> int:
    """Euler's phi(n), the number of units modulo n >= 1."""
    return math.prod((r - 1) * r ** (k - 1) for r, k in factorize(n).items())


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in the unit group mod n; the order mod 1 is 1."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return 1
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    e = 1
    x = a
    while x != 1:
        x = x * a % n
        e += 1
    return e


def power(x, e: int, mul, one):
    """x^e for an integer e >= 0 by right-to-left square-and-multiply with
    the product mul.  e = 0 gives one; otherwise the square at e's lowest
    set bit starts the result, nothing is multiplied by one, and x^e costs
    e.bit_length() - 1 squarings and popcount(e) - 1 other products."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return one if out is None else out
        x = mul(x, x)
