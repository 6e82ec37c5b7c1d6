"""Cyclic subgroups of GL_n(F_q): orders, conjugacy tests, class enumeration.

Two routes decide whether the cyclic groups generated by A and B are
conjugate:

* conjugacy_witness scans coprime powers B^i for one conjugate to A
  (matrix conjugacy = equal canonical divisor sequences) and returns the
  smallest witness power.  This is the ground-truth oracle.
* same_signature compares the multisets of (order of p, exponent) over the
  elementary divisors p^e.  It is the cheap test the oracle is meant to
  certify; the two can disagree (see verify.suite_groups, which reports a
  known six-dimensional disagreement over GF(2)) and the oracle wins.

Class enumeration works on the orders alone.  The monic irreducibles
p != x of degree d have exactly the orders o | q^d - 1 with ord_o(q) = d,
and there are phi(o)/d of each (Lidl and Niederreiter, Finite Fields,
Thm 3.5), so the signature cells are the multisets of atoms (o, e) with
sum of ord_o(q) e equal to n.  Each cell's representative takes the
smallest irreducible of order o for every slot (o, e), found by one scan
of the degree-d irreducibles in code order that stops once every order
has turned up, and its group order is lcm(o c(e)), with c(e) the least
power of the characteristic that is >= e; no member of a cell other
than its representative is built.

closure, the one enumeration of group elements, runs breadth first on
the packed rows of rows.py, the kernel the orbit walk in codes.py also
runs on: one loop for every field size, with no table over all of F_q^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import ClosureCapError, SingularMatrixError
from .field import GF
from .matrix import Mat, is_invertible
from .numtheory import factorize, multiplicative_order
from .poly import Poly, _char_power, _factored_order, _irreducible_order, irreducibles
from .poly import order as poly_order
from .rcf import (
    RcfData,
    check_invertible,
    divisor_key,
    elementary_divisors,
    rcf_from_divisors,
)
from .rows import _kernel


def divisors_order(divisors) -> int:
    """Order of every matrix with these elementary divisors, such as
    diag(companion(p_i^e_i)), by poly._factored_order.  A power of x, the
    mark of a singular matrix, raises SingularMatrixError."""
    check_invertible(divisors)
    return _factored_order(divisors)


def matrix_order(a: Mat, divisors=None) -> int:
    """Multiplicative order of an invertible matrix, verified by one power
    check.  The elementary divisors come from rcf.elementary_divisors unless
    the caller built A from them and passes them as `divisors`."""
    n = divisors_order(elementary_divisors(a) if divisors is None else divisors)
    if not (a**n).is_identity():
        raise AssertionError("computed order failed the A^N = I check")
    return n


class CyclicGroup:
    """The cyclic group generated by an invertible matrix; closure lists its elements."""

    def __init__(self, generator: Mat):
        if not generator.is_square:
            raise ValueError("generator must be square")
        self.generator = generator
        self.field = generator.field
        self.n = generator.rows
        self.order = matrix_order(generator)  # raises on singular input

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"CyclicGroup(order={self.order}, n={self.n}, field={self.field!r})"


class Signature:
    """Multiset of (order of p, exponent e, deg p) over elementary divisors.

    Equality and hashing ignore the redundant degree component, but a
    degree inconsistent with the order is rejected at construction.
    """

    __slots__ = ("entries", "_key")

    def __init__(self, entries: Sequence[tuple[int, int, int]], q: int):
        entries = tuple(sorted(tuple(e) for e in entries))
        for o, e, deg in entries:
            expect = multiplicative_order(q % o if o > 1 else 0, o)
            if deg != expect:
                raise AssertionError(
                    f"degree {deg} does not match the order of {q} modulo {o}"
                )
        self.entries = entries
        self._key = tuple((o, e) for o, e, _ in entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"(ord={o}, e={e}, deg={d})" for o, e, d in self.entries)
        return f"Signature[{inner}]"


def signature_of_divisors(field: GF, divisors) -> Signature:
    entries = [(poly_order(p), e, int(p.degree)) for p, e in divisors]
    return Signature(entries, field.q)


def signature(a: Mat) -> Signature:
    """Signature of the cyclic group generated by an invertible matrix."""
    divisors = elementary_divisors(a)
    check_invertible(divisors)
    return signature_of_divisors(a.field, divisors)


def conjugacy_witness(a: Mat, b: Mat) -> int | None:
    """Smallest i with gcd(i, N) = 1 and A conjugate to B^i, where N is the
    common group order; None when the cyclic groups are not conjugate."""
    if a.field != b.field:
        raise ValueError("matrices must share a field")
    if a.rows != b.rows or not a.is_square or not b.is_square:
        raise ValueError("matrices must be square of equal size")
    n_a = matrix_order(a)
    n_b = matrix_order(b)
    if n_a != n_b:
        return None
    target = elementary_divisors(a)
    power = Mat.identity(b.field, b.rows)
    for i in range(1, n_b + 1):
        power = power * b
        if math.gcd(i, n_b) == 1 and elementary_divisors(power) == target:
            return i
    return None


def same_signature(a: Mat, b: Mat) -> bool:
    """Signature-based conjugacy test: equal (order, exponent) multisets."""
    return signature(a) == signature(b)


@dataclass(frozen=True)
class ClassRep:
    """One conjugacy class of cyclic subgroups: canonical representative,
    signature, and group order."""

    rcf: RcfData
    signature: Signature
    order: int


def _orders_of_degree(q: int, d: int) -> list[int]:
    """The orders o of the monic irreducibles p != x of degree d over F_q:
    the divisors of q^d - 1 with ord_o(q) = d, that is, dividing no
    q^(d/r) - 1 for a prime r | d (Lidl and Niederreiter, Finite Fields,
    Thm 3.3 and 3.5)."""
    divisors = [1]
    for prime, k in factorize(q**d - 1).items():
        divisors = [o * prime**i for o in divisors for i in range(k + 1)]
    lower = [q ** (d // r) - 1 for r in factorize(d)]
    return sorted(o for o in divisors if all(m % o for m in lower))


def _smallest_of_each_order(field: GF, d: int) -> dict[int, Poly]:
    """{o: the first irreducible of degree d and order o in code order},
    for every order o of degree d; the scan stops once each is found."""
    wanted = set(_orders_of_degree(field.q, d))
    found = {}
    for p in irreducibles(field, d):
        if not p.coeff(0):
            continue  # x, a singular block
        o = _irreducible_order(p)  # p is irreducible by construction
        if o in wanted:
            wanted.discard(o)
            found[o] = p
            if not wanted:
                return found
    raise AssertionError(f"no irreducible of degree {d} has order {min(wanted)}")


def class_representatives(field: GF, n: int) -> tuple[ClassRep, ...]:
    """Conjugacy classes of cyclic subgroups of GL_n(F_q), one canonical
    representative per signature cell, sorted by representative.

    A cell is a multiset of atoms (o, e) with sum of ord_o(q) e equal to n.
    Its representative puts in every slot (o, e) the smallest irreducible
    p_o of order o, which gives the least sorted divisor_key tuple among
    the cell's members.  Proof: the keys of one cell's members share their
    degrees and exponents slot by slot, and a member's sorted tuple is
    compared element by element.  Replacing one element of a multiset by
    a smaller one leaves every entry of the sorted tuple no larger: the
    i-th smallest of the new multiset is at most the i-th smallest of the
    old.  So a smaller element in any slot never raises the tuple, and
    moving each slot of any member to p_o in turn reaches the
    representative without raising it.  The order is lcm(o c(e)), with
    c(e) the least power of the characteristic that is >= e (Thm 3.8);
    o is known for each slot, so no candidate's order is recomputed.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    smallest = {}
    atoms = []  # (o, e, deg), by ascending degree so a scan can stop early
    for d in range(1, n + 1):
        of_degree = _smallest_of_each_order(field, d)
        smallest.update(of_degree)
        atoms.extend((o, e, d) for o in of_degree for e in range(1, n // d + 1))

    def extend(start: int, remaining: int, chosen: list):
        if remaining == 0:
            yield tuple(chosen)
            return
        for idx in range(start, len(atoms)):
            _, e, d = atoms[idx]
            if d > remaining:
                break
            if d * e <= remaining:
                chosen.append(atoms[idx])
                yield from extend(idx, remaining - d * e, chosen)
                chosen.pop()

    reps = []
    for cell in extend(0, n, []):
        divisors = [(smallest[o], e) for o, e, _ in cell]
        order = math.lcm(*(o * _char_power(field, e) for o, e, _ in cell))
        reps.append(ClassRep(rcf_from_divisors(field, divisors), Signature(cell, field.q), order))
    reps.sort(key=lambda r: tuple(divisor_key(d) for d in r.rcf.divisors))
    return tuple(reps)


@dataclass(frozen=True)
class GeneratedGroup:
    """A finite matrix group: its order, and its elements as Mats, unpacked
    from the closure's packed-row keys on the first read of `elements`."""

    generators: tuple[Mat, ...]
    order: int
    _keys: frozenset

    @cached_property
    def elements(self) -> frozenset[Mat]:
        F = self.generators[0].field
        n = self.generators[0].rows
        unpack = _kernel(F, n).unpack
        return frozenset(Mat._trusted(F, n, n, unpack(key)) for key in self._keys)


def closure(generators: Sequence[Mat], cap: int = 1_000_000) -> GeneratedGroup:
    """Breadth-first closure of invertible generators under multiplication.

    Every generator has finite order, so closing under right multiplication
    alone yields the whole group.  Each element is keyed by the tuple of its
    packed rows, and row i of M G is the image of M's row i under G, so a
    product is one memo lookup per row.  Raises ClosureCapError (with the
    partial count) once more than `cap` elements appear.
    """
    if not generators:
        raise ValueError("closure needs at least one generator")
    F = generators[0].field
    n = generators[0].rows
    for g in generators:
        if g.field != F or g.rows != n or g.cols != n:
            raise ValueError("generators must be square, equal-sized, one field")
        if not is_invertible(g):
            raise SingularMatrixError("generators must be invertible")

    kern = _kernel(F, n)
    images = [kern.imager(g) for g in dict.fromkeys(generators)]
    one = Mat.identity(F, n)
    frontier = [tuple([kern.pack(one.row(i)) for i in range(n)])]
    seen = set(frontier)
    while frontier:
        new = []
        for key in frontier:
            for image in images:
                prod = tuple([image[r] for r in key])
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        raise ClosureCapError(cap, len(seen))
                    new.append(prod)
        frontier = new
    return GeneratedGroup(tuple(generators), len(seen), frozenset(seen))
