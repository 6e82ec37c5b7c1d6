"""Cyclic subgroups of GL_n(F_q): orders, conjugacy tests, cell enumeration.

A cyclic group is its generator: a caller holds the matrix A, or its
elementary divisors p_i^e_i.  Its order (matrix_order, divisors_order)
and its signature are read from the divisors, and matrix_order and
signature read a matrix's divisors from rcf.rcf, which checks them.
A class representative (ClassRep) is its divisors too; a caller that
needs its matrix builds matrix.companion_diag(rep.divisors).

Two routes decide whether the cyclic groups generated by A and B are
conjugate:

* conjugacy_witness scans coprime powers B^i for one conjugate to A
  (matrix conjugacy = equal canonical divisor sequences, rcf(A) == rcf(B))
  and returns the smallest witness power.  This is the ground-truth oracle.
* signature equality, signature(A) == signature(B), compares the sorted
  (order of p, exponent, degree) tuples over the elementary divisors p^e.
  It is the cheap test the oracle is meant to certify; the two can
  disagree (see verify.suite_groups, which reports a known
  six-dimensional disagreement over GF(2)) and the oracle wins.

Class enumeration works on the orders alone and lists signature cells,
which undercount the conjugacy classes (GF(4) n=2: 7 against 8; GF(2) n=6:
39 against 40; ROADMAP item 1).  The monic irreducibles p != x of degree d
have exactly the orders o | q^d - 1 with ord_o(q) = d, and there are
phi(o)/d of each (Lidl and Niederreiter, Finite Fields, Thm 3.5), so the
signature cells are the multisets of atoms (o, e) with sum of ord_o(q) e
equal to n.  Each cell's representative takes the smallest irreducible of
order o for every slot (o, e), and its group order is lcm(o c(e)), with
c(e) the least power of the characteristic that is >= e; no other member of
a cell is built, and a walk over the atoms in divisor_key order yields the
cells in output order, with nothing sorted afterwards.  The smallest
irreducibles come from one scan of the degree-d irreducibles in code order
that stops once every common order has turned up.  An order with few
irreducibles is built instead: they are the minimal polynomials of
alpha^((q^d-1)/o a), alpha a root of the first primitive irreducible the
scan met and a a unit mod o (Thm 3.5), each the characteristic polynomial
of multiplication by that power of x modulo the primitive one (rows'
multiplier(p, e): groups builds no companion matrix and does no field
arithmetic of its own).

closure, the one enumeration of group elements, builds a Schreier-Sims
stabilizer chain (Sims 1970; Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005, Sec. 4.4) on the packed rows of rows.py,
the kernel the orbit walk in codes.py also runs on.  The base is the rows
of I, so the chain's orbits hold at most q^n - 1 rows each, the order is
their product, and no element is listed unless `elements` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import SingularMatrixError
from .field import GF
from .matrix import Mat
from .numtheory import factorize, multiplicative_order, power, totient, unit_group_factors
from .poly import Poly, _char_power, _factored_order, _irreducible_order, irreducibles, x_power
from .poly import order as poly_order
from .rcf import char_poly, check_invertible, divisor_key, elementary_divisors, rcf
from .rows import _kernel


def divisors_order(divisors) -> int:
    """Order N of every matrix with these elementary divisors p_i^e_i, by
    poly._factored_order.  companion(f) is multiplication by x on
    F_q[x]/(f), so A^N = I is checked as x^N = 1 mod every p_i^e_i.  A
    power of x, the mark of a singular matrix, raises SingularMatrixError."""
    check_invertible(divisors)
    n = _factored_order(divisors)
    one = [(1,) + (0,) * (int(p.degree) * e - 1) for p, e in divisors]
    if [x_power(p**e, n) for p, e in divisors] != one:
        raise AssertionError("computed order failed the A^N = I check")
    return n


def matrix_order(a: Mat) -> int:
    """Multiplicative order N of an invertible matrix, from the divisors of
    rcf.rcf by poly._factored_order, verified by one check that A^N = I:
    numtheory.power on the packed rows of rows.py, with the kernel's
    product."""
    n = _factored_order(rcf(a))
    kern = _kernel(a.field, a.rows)
    one = kern.key(Mat.identity(a.field, a.rows))
    if power(kern.key(a), n, kern.product, one) != one:
        raise AssertionError("computed order failed the A^N = I check")
    return n


def _signature(entries, q: int) -> tuple[tuple[int, int, int], ...]:
    """The sorted (order o of p, exponent e, deg p) triples over the
    elementary divisors p^e; a degree other than ord_o(q) is rejected."""
    entries = tuple(sorted(entries))
    for o, e, deg in entries:
        if deg != multiplicative_order(q % o if o > 1 else 0, o):
            raise AssertionError(f"degree {deg} does not match the order of {q} modulo {o}")
    return entries


def signature_of_divisors(field: GF, divisors) -> tuple[tuple[int, int, int], ...]:
    return _signature([(poly_order(p), e, int(p.degree)) for p, e in divisors], field.q)


def signature(a: Mat) -> tuple[tuple[int, int, int], ...]:
    """Signature of the cyclic group generated by an invertible matrix."""
    return signature_of_divisors(a.field, rcf(a))


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


@dataclass(frozen=True)
class ClassRep:
    """One signature cell of cyclic subgroups, one or more conjugacy
    classes: the canonical divisors of its representative, signature, and
    group order."""

    divisors: tuple[tuple[Poly, int], ...]
    signature: tuple[tuple[int, int, int], ...]
    order: int


def _orders_of_degree(q: int, d: int) -> list[int]:
    """The orders o of the monic irreducibles p != x of degree d over F_q:
    the divisors of q^d - 1 with ord_o(q) = d, that is, dividing no
    q^(d/r) - 1 for a prime r | d (Lidl and Niederreiter, Finite Fields,
    Thm 3.3 and 3.5)."""
    divisors = [1]
    for prime, k in unit_group_factors(q, d):
        divisors = [o * prime**i for o in divisors for i in range(k + 1)]
    lower = [q ** (d // r) - 1 for r in factorize(d)]
    return sorted(o for o in divisors if all(m % o for m in lower))


def _minimal_polynomial(primitive: Poly, k: int) -> Poly:
    """The minimal polynomial of alpha^k over F_q, alpha a root of the
    irreducible `primitive` of degree d, for alpha^k of degree d: the
    rcf.char_poly of multiplication by x^k mod primitive, rows' multiplier."""
    F, d = primitive.field, int(primitive.degree)
    kern = _kernel(F, d)
    return char_poly(Mat._trusted(F, d, d, kern.unpack(kern.multiplier(primitive, k))))


def _coset_representatives(q: int, o: int) -> list[int]:
    """The least member of each coset of <q> in (Z/o)^*; [0] for o = 1."""
    seen = set()
    reps = []
    for a in range(o):
        if a not in seen and math.gcd(a, o) == 1:
            reps.append(a)
            while a not in seen:
                seen.add(a)
                a = a * q % o
    return reps


# The cost of one minimal polynomial built by _minimal_polynomial over one
# irreducible's order in the scan.  An order o with c = phi(o)/d of the N
# irreducibles of degree d (Thm 3.5) first turns up near N/(c+1) in code
# order, so it is built when c (c+1) _SCANS_PER_BUILD <= N.  Per call the
# ratio is 5-6 over GF(2), whose scan runs on packed ints, and 0.3-1.2 over
# GF(3), GF(4), GF(5), GF(8), GF(257) and GF(1021).  _smallest_of_each_order
# over the degrees below, in ms (CPython 3.11, x86-64, min of 7), with this
# ratio and, for comparison, with a fixed count (built when c <= 2 or 5):
#                  ratio 2     4     6     8    12   count 2     5
#   GF(2) d<=12       11.1   6.2   4.7   3.6   3.8       3.2   4.3
#   GF(3) d<=6         2.4   2.4   3.8   3.9   4.7       4.1   2.8
#   GF(4) d<=5         3.1   2.6   2.2   2.1   6.6       6.5   2.4
#   GF(2) d=13..16    25.6  14.6  14.4  14.5  16.0      26.6  22.6
#   GF(3) d=7..8      16.9  18.1  17.6  16.5  15.7      29.1  15.1
#   GF(8) d<=4        21.9  22.2  22.1  32.9  33.1      59.2  38.3
#   GF(257) d=2       71.2  73.5  64.2   168   169       364   365
#   GF(65537) d=1     30.1  27.0  27.2  27.3  27.4       127   124
_SCANS_PER_BUILD = 6


def _smallest_of_each_order(field: GF, d: int) -> dict[int, Poly]:
    """{o: the irreducible of degree d and order o with the least code}, for
    every order o of degree d.

    The common orders, and always the primitive order q^d - 1, are found
    by one scan of irreducibles(field, d) in code order that stops once
    each has turned up.  An order o with too few irreducibles for the scan
    to meet one soon (see _SCANS_PER_BUILD) is built instead: its
    irreducibles are the minimal polynomials of alpha^(s a), with alpha a
    root of the first primitive irreducible, s = (q^d - 1)/o and a one
    representative of each coset of <q> in (Z/o)^* (Lidl and Niederreiter,
    Finite Fields, Thm 3.5), and the least code is kept."""
    full = field.q**d - 1
    orders = _orders_of_degree(field.q, d)
    candidates = irreducibles(field, d)
    rare = []
    for o in orders[:-1]:  # the last is the full order, always scanned for
        c = totient(o) // d
        if c * (c + 1) * _SCANS_PER_BUILD <= len(candidates):
            rare.append(o)
    wanted = set(orders).difference(rare)
    found = {}
    for p in candidates:
        if not p.coeff(0):
            continue  # x, a singular block
        o = _irreducible_order(p)  # p is irreducible by construction
        if o in wanted:
            wanted.discard(o)
            found[o] = p
            if not wanted:
                break
    else:
        raise AssertionError(f"no irreducible of degree {d} has order {min(wanted)}")
    for o in rare:
        built = (
            _minimal_polynomial(found[full], full // o * a)
            for a in _coset_representatives(field.q, o)
        )
        found[o] = min(built, key=Poly.code)
    return found


def class_representatives(field: GF, n: int) -> tuple[ClassRep, ...]:
    """Signature cells of cyclic subgroups of GL_n(F_q), one canonical
    representative per cell, in divisor_key order; a cell can hold several
    conjugacy classes, so this undercounts them (ROADMAP item 1).

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

    Nothing is sorted after the walk.  The atoms (p_o, e) are sorted once
    by divisor_key, degree first, so an atom too large for what is left
    ends a scan; picking them by non-decreasing index yields each cell as
    its key tuple, and the cells in tuple order, as none prefixes another.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    atoms = []  # ((p_o, e), (o, e, deg p_o))
    for d in range(1, n + 1):
        for o, p in _smallest_of_each_order(field, d).items():
            atoms.extend(((p, e), (o, e, d)) for e in range(1, n // d + 1))
    _signature([entry for _, entry in atoms], field.q)  # deg = ord_o(q), once per atom
    atoms.sort(key=lambda atom: divisor_key(atom[0]))

    def cells(start: int, remaining: int, chosen: list):
        if remaining == 0:
            divisors, entries = zip(*chosen)
            order = math.lcm(*(o * _char_power(field, e) for o, e, _ in entries))
            yield ClassRep(divisors, tuple(sorted(entries)), order)
            return
        for idx in range(start, len(atoms)):
            (_, e), (_, _, d) = atoms[idx]
            if d > remaining:
                break
            if d * e <= remaining:
                chosen.append(atoms[idx])
                yield from cells(idx, remaining - d * e, chosen)
                chosen.pop()

    return tuple(cells(0, n, []))


@dataclass(frozen=True)
class GeneratedGroup:
    """A finite matrix group: its generators, its order and, per level of
    its stabilizer chain, the keys u of the transversal of the base point
    e_i (the packed rows of rows.py).  Every element is one product
    u_{n-1} ... u_1 u_0, so `elements` lists them, unpacked to Mats, on its
    first read."""

    generators: tuple[Mat, ...]
    order: int
    _transversals: tuple[tuple[tuple, ...], ...]

    @cached_property
    def elements(self) -> frozenset[Mat]:
        F = self.generators[0].field
        n = self.generators[0].rows
        kern = _kernel(F, n)
        product = kern.product
        keys = [kern.key(Mat.identity(F, n))]
        for transversal in reversed(self._transversals):
            keys = [product(k, u) for k in keys for u in transversal]
        return frozenset(Mat._trusted(F, n, n, kern.unpack(k)) for k in keys)


class _Level:
    """Level i of a stabilizer chain: the strong generators that fix the
    base points e_0 .. e_{i-1}, each with its inverse, and the orbit of e_i
    under them with its transversal, point p -> (u, u^-1) with e_i u = p.
    done[k] counts the generators already applied to points[k]."""

    __slots__ = ("gens", "points", "transversal", "done")

    def __init__(self, base_point, one: tuple):
        self.gens: list[tuple[tuple, tuple]] = []
        self.points = [base_point]
        self.transversal = {base_point: (one, one)}
        self.done = [0]


def _stabilizer_chain(F: GF, n: int, kern, generators: list[tuple]) -> list[_Level]:
    """The deterministic Schreier-Sims algorithm over the base e_0 .. e_{n-1},
    for generators given as keys of the kernel kern.

    Level i is swept for i = n-1 down to 0: each orbit point p meets each
    generator s, and p s either joins the orbit or gives the Schreier
    generator u_p s u_{ps}^-1, which is sifted through the levels below.
    A nontrivial residue fails at some level j > i; it joins every level
    whose base points it fixes (0 .. j) and the sweep resumes at j.  When
    no level has an unswept pair, every Schreier generator sifts to I, so
    by Sims' criterion level i's orbit is the orbit of e_i under the
    stabilizer of e_0 .. e_{i-1}.  Only I fixes every e_i, so the chain
    ends in the trivial group.  Each strong generator's inverse comes once
    from Mat.inverse.
    """
    times, product, key, unpack = kern.times, kern.product, kern.key, kern.unpack
    one = key(Mat.identity(F, n))
    levels = [_Level(b, one) for b in one]

    def add(s: tuple) -> int:
        """Make s a strong generator; the number of base points it fixes."""
        s_inv = key(Mat._trusted(F, n, n, unpack(s)).inverse())
        depth = next(j for j, (r, b) in enumerate(zip(s, one)) if r != b)
        for level in levels[: depth + 1]:
            level.gens.append((s, s_inv))
        return depth

    def sift(h: list, j: int):
        """Sift the element with rows h from row j on, which fixes e_0 ..
        e_{j-1}: the key of its residue where a level fails, or None when
        it sifts to I.  Each step fixes one more e_j, so only the rows
        after it are carried on."""
        while h:
            if h[0] != one[j]:
                t = levels[j].transversal.get(h[0])
                if t is None:
                    return one[:j] + tuple(h)
                u_inv = t[1]
                h = [times(r, u_inv) for r in h[1:]]
            else:
                h = h[1:]
            j += 1
        return None  # h fixes every e_j

    def sweep(i: int):
        """Apply level i's generators to its orbit; the first nontrivial
        residue of a Schreier generator, or None."""
        level = levels[i]
        points, transversal, done = level.points, level.transversal, level.done
        k = 0
        while k < len(points):
            p = points[k]
            u, u_inv = transversal[p]
            while done[k] < len(level.gens):
                s, s_inv = level.gens[done[k]]
                done[k] += 1
                ps = times(p, s)
                t = transversal.get(ps)
                if t is None:
                    transversal[ps] = (product(u, s), product(s_inv, u_inv))
                    points.append(ps)
                    done.append(0)
                else:  # u s t^-1 fixes e_0 .. e_i
                    v = t[1]
                    residue = sift([times(times(r, s), v) for r in u[i + 1 :]], i + 1)
                    if residue is not None:
                        return residue
            k += 1
        return None

    for g in dict.fromkeys(generators):
        if g != one:
            add(g)
    i = len(levels) - 1
    while i >= 0:
        residue = sweep(i)
        i = i - 1 if residue is None else add(residue)
    return levels


def closure(generators: Sequence[Mat]) -> GeneratedGroup:
    """The group generated by invertible matrices, by a stabilizer chain.

    Each matrix is keyed by the tuple of its packed rows, whose pivots
    check it invertible.  The order, the product of the chain's orbit
    lengths, is known before any element is listed; `elements` lists them
    only when read.
    """
    if not generators:
        raise ValueError("closure needs at least one generator")
    F = generators[0].field
    n = generators[0].rows
    kern = _kernel(F, n)
    keys = []
    for g in generators:
        if g.field != F or g.rows != n or g.cols != n:
            raise ValueError("generators must be square, equal-sized, one field")
        keys.append(kern.key(g))
        if len(kern.pivots(keys[-1])) != n:
            raise SingularMatrixError("generators must be invertible")

    levels = _stabilizer_chain(F, n, kern, keys)
    order = math.prod(len(level.points) for level in levels)
    transversals = tuple(tuple(u for u, _ in level.transversal.values()) for level in levels)
    return GeneratedGroup(tuple(generators), order, transversals)
