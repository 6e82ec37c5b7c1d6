#!/usr/bin/env python3
"""Orbit codes: subspaces under a cyclic matrix group, their distance
distribution, and invariance under conjugation."""

import random

from orbitcodes import (
    GF,
    Mat,
    Poly,
    act,
    companion,
    conjugate_code,
    distance_distribution,
    is_invertible,
    min_distance,
    orbit_code,
    subspace,
    subspace_distance,
)

f2 = GF(2)

# A subspace is stored as its canonical reduced-row-echelon basis.
u = subspace(Mat.from_rows(f2, [[1, 1, 0], [1, 0, 0]]))
print("canonical basis of rowsp((1,1,0),(1,0,0)):", u.basis.to_lists())

# The subspace metric: d(U, V) = dim U + dim V - 2 dim(U n V).
line = subspace(Mat.from_rows(f2, [[1, 0, 0]]))
print("distance between a line and a containing plane:", subspace_distance(line, u))

# Acting by the order-7 companion block sweeps the line through all 7 lines
# of F_2^3: the classic one-orbit code.
a = companion(Poly(f2, [1, 1, 0, 1]))
print("\nacting on the line by the generator:", act(line, a))
code = orbit_code(line, a)
print("orbit code size:", len(code), "| stabilizer order:", code.stab_order)
print("minimum distance:", min_distance(code))
print("distance distribution:", distance_distribution(code))
for word in code.codebook:
    print("   codeword:", word.basis.to_lists())

# Conjugating the whole picture (base point and group together) never
# changes cardinality or the distribution.
rng = random.Random(7)
while True:
    l = Mat(f2, 3, 3, [rng.randrange(2) for _ in range(9)])
    if is_invertible(l):
        break
moved = conjugate_code(code, l)
print("\nconjugated code size:", len(moved),
      "| distribution:", distance_distribution(moved))
