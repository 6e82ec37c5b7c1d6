#!/usr/bin/env python3
"""Rational canonical forms: invariant factors, elementary divisors, conjugacy."""

import random

from orbitcodes import (
    GF,
    Mat,
    Poly,
    block_diag,
    char_poly,
    companion,
    companion_diag,
    invariant_factors,
    is_invertible,
    min_poly,
    rcf,
)

f2 = GF(2)

# A companion matrix is the canonical cyclic block: char = min = f.
f = Poly(f2, [1, 1, 0, 1])
a = companion(f)
print("companion of", f, "is")
for row in a.to_lists():
    print("   ", row)
print("char =", char_poly(a), "| min =", min_poly(a))

# Invariant factors come from diagonalizing xI - A over F_2[x]; they chain
# by divisibility, and their prime-power pieces are the elementary divisors.
m = block_diag([companion(Poly(f2, [1, 1])), companion(Poly(f2, [1, 0, 1]))])
print("\ninvariant factors of diag(companion(x+1), companion((x+1)^2)):")
print("   ", [str(g) for g in invariant_factors(m)])
print("elementary divisors:", [(str(p), e) for p, e in rcf(m)])

# Conjugacy is exactly equality of canonical forms; conjugating by any
# invertible L leaves the form fixed.
rng = random.Random(42)
while True:
    l = Mat(f2, 3, 3, [rng.randrange(2) for _ in range(9)])
    if is_invertible(l):
        break
twisted = l.inverse() * a * l
print("\na random conjugate of the companion block:")
for row in twisted.to_lists():
    print("   ", row)
print("same canonical form?", rcf(a) == rcf(twisted))
print("canonical matrix recovered:")
for row in companion_diag(rcf(twisted)).to_lists():
    print("   ", row)
