#!/usr/bin/env python3
"""Classifying cyclic subgroups of GL_n(F_q) up to conjugacy.

Two cyclic groups <A> and <B> are conjugate exactly when A is conjugate to
a power B^i with i coprime to the group order (the witness oracle).  What
decides it in practice is the signature: the multiset of (order, exponent)
over the elementary divisors of a generator.
"""

from orbitcodes import (
    GF,
    Mat,
    Poly,
    class_representatives,
    closure,
    companion,
    conjugacy_witness,
    irreducibles,
    matrix_order,
    signature,
)

f2 = GF(2)

a = companion(Poly(f2, [1, 1, 0, 1]))
b = companion(Poly(f2, [1, 0, 1, 1]))
print("A = companion(x^3+x+1), B = companion(x^3+x^2+1), both of order",
      matrix_order(a))
print("signature of A, (order, exponent, degree) per divisor:", signature(a))
print("signature test says conjugate subgroups?", signature(a) == signature(b))
print("witness power: A ~ B^i for i =", conjugacy_witness(a, b))

print("\nconjugacy classes of cyclic subgroups of GL_3(F_2):")
for rep in class_representatives(f2, 3):
    divisors = ", ".join(f"({p})^{e}" for p, e in rep.divisors)
    print(f"  order {rep.order:2d}  divisors {divisors}")

# The signature criterion does NOT extend to arbitrary subgroups: A and its
# transpose generate conjugate cyclic groups, yet the pair <A, A^t> explodes
# to the full linear group.
pair = closure([a, a.transpose()])
print("\n|<A>| =", matrix_order(a), " but  |<A, A^t>| =", pair.order,
      "= |GL_3(F_2)|")

# The closure finds the order from a stabilizer chain without listing the
# group, so the same pair at n = 6 is no harder: A primitive of degree 6.
a6 = next(companion(p) for p in irreducibles(f2, 6)
          if p.coeff(0) and matrix_order(companion(p)) == 2**6 - 1)
gl6 = 1
for i in range(6):
    gl6 *= 2**6 - 2**i
print("|<A6, A6^t>| =", closure([a6, a6.transpose()]).order,
      "= |GL_6(F_2)| =", gl6)

# Over GF(4) even two *conjugate* matrices B1 ~ B2 can pair up with the same
# A into groups of different sizes.
f4 = GF(2, 2)
a4 = Mat.from_rows(f4, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
b1 = Mat.from_rows(f4, [[0, 1, 0], [0, 0, 1], [1, 0, 1]])
b2 = Mat.from_rows(f4, [[3, 1, 2], [2, 2, 3], [0, 1, 0]])
print("\nover GF(4): B1 ~ B2?", conjugacy_witness(b1, b2) is not None)
print("|<A, B1>| =", closure([a4, b1]).order)
print("|<A, B2>| =", closure([a4, b2]).order)
