"""Orbit codes in the Grassmannian: the orbit profile, code parameters and
block bounds.  This is library code only; the checks of claims about
component codes, and their reports, are verify's.

A Subspace is a point of the Grassmannian held as its canonical full-rank
RREF basis, so equality is plain entry-wise comparison.  GL_n acts on the
right: act(U, A) is the row space of (basis of U) * A, re-canonicalized.

For a cyclic group G = <A> the orbit code of U enumerates U, UA, UA^2, ...
up to the period p (the least p >= 1 with U A^p = U), so codebooks list in
a deterministic order and the stabilizer has order |G| / p.  Every code
parameter comes from the orbit profile: p, k and the nonzero overlaps
dim(U n U A^j), 0 < j < p.  For A = diag(companion(p_i^e_i)) the profile
has two producers, and the input picks one:

* a single irreducible p other than x with e = 1, for a proper U whose
  label pairs cost no more than the walk would (see _count_is_cheaper): a
  difference count.  A is multiplication by x on F_q[x]/(p), so U's
  nonzero vectors carry labels (cycle, exponent) in the cycles of x that
  meet U, found by baby-step giant-step in each cycle (_coset_exponents)
  rather than by stepping round it, and counting exponent differences
  into one dict gives every overlap, with no linear algebra and no
  codebook;
* every other generator and subspace: the orbit walk (_walk), on the
  packed rows of rows.py (the kernel groups.closure also uses).  It steps
  a basis B_j = B_{j-1} A from U's reduced basis and reads each overlap
  as k minus the rank of B_j modulo U, holding O(k) rows; orbit_code
  lists its codebook as the reduced echelon forms of the same walk's
  bases and is always walked.

Each value holds the profile it owns, and the module keeps no cache: an
OrbitCode carries its walk's profile for min_distance and
distance_distribution; a BlockStructure and its sub-blocks share one memo
of profiles keyed by (divisors, basis), filled on first use (a one-block
structure and its block have one key), for the code report, both block
bounds and the component lines.  The walk is the reference the
difference count is tested against: a multi-block structure walks the
whole code, so the refined bound, read from component counts, meets its
walked distance only if they are right.  The Mat/rref path is
the independent slow oracle that the verify suites and the tests compare
the walk against: act and stabilizer_order canonicalize through
subspace, and subspace_distance reads intersection_dim.  Every function
that takes divisors checks them once, in _divisors.

The block machinery splits an RREF basis along the column blocks of a
block-diagonal generator diag(M_1, ..., M_t): sub-block i keeps the rows
whose pivot falls inside block i, restricted to block i's columns, which
is already the canonical basis of its row space, so no rref runs on it.
Two lower bounds on the minimum distance are computed from the sub-blocks:

* block_bound: per-component worst-case overlap, maximizing each component
  independently over its own nonzero residues;
* block_bound_refined: a single global power drives all components at
  once, with residue-0 components contributing their full dimension.

The refined bound is provably valid for every RREF basis and exact for
block-diagonal ones, and the two bounds can genuinely separate (a 3+2
block example over GF(2) has refined value 2 where the per-component form
reports 4); the verify suites record such separations without failing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from typing import NamedTuple, Sequence

from .errors import SingularMatrixError
from .field import GF, _Memo
from .groups import CyclicGroup
from .matrix import Mat, companion, companion_diag, is_invertible, rref
from .poly import Poly, is_irreducible, order as poly_order, x_power
from .rows import _kernel


@dataclass(frozen=True)
class Subspace:
    field: GF
    n: int
    k: int
    basis: Mat  # k x n, full rank, RREF

    def __repr__(self) -> str:
        rows = "; ".join(
            ",".join(str(e) for e in self.basis.row(i)) for i in range(self.k)
        )
        return f"Subspace({self.k} of {self.field!r}^{self.n}: {rows})"


def subspace(rows: Mat) -> Subspace:
    """Canonical subspace spanned by the rows of a matrix (zero rows drop)."""
    r = rref(rows)
    if r.rank == 0:
        raise ValueError("the zero subspace is not a Grassmannian point here")
    basis = Mat._trusted(
        rows.field,
        r.rank,
        rows.cols,
        r.matrix.entries[: r.rank * rows.cols],
    )
    return Subspace(rows.field, rows.cols, r.rank, basis)


def _act_unchecked(u: Subspace, a: Mat) -> Subspace:
    moved = subspace(u.basis * a)
    if moved.k != u.k:
        raise SingularMatrixError("action dropped the dimension; matrix is singular")
    return moved


def _check_operator(u: Subspace, a: Mat) -> None:
    if a.field != u.field:
        raise ValueError("subspace and matrix must share a field")
    if a.rows != u.n or a.cols != u.n:
        raise ValueError(f"expected a {u.n}x{u.n} matrix, got {a.rows}x{a.cols}")


def act(u: Subspace, a: Mat) -> Subspace:
    """Right action: the row space of (basis * A), for invertible n x n A.

    Mat multiply and rref: the oracle the orbit walk is checked against."""
    _check_operator(u, a)
    if not is_invertible(a):
        raise SingularMatrixError("the action is defined for invertible matrices only")
    return _act_unchecked(u, a)


def intersection_dim(u1: Subspace, u2: Subspace) -> int:
    """dim U1 + dim U2 - rank of the stacked bases."""
    if u1.field != u2.field or u1.n != u2.n:
        raise ValueError("subspaces live in different ambient spaces")
    stacked = Mat._trusted(
        u1.field, u1.k + u2.k, u1.n, u1.basis.entries + u2.basis.entries
    )
    return u1.k + u2.k - rref(stacked).rank


def subspace_distance(u1: Subspace, u2: Subspace) -> int:
    """dim U1 + dim U2 - 2 dim(U1 n U2)."""
    return u1.k + u2.k - 2 * intersection_dim(u1, u2)


@dataclass(frozen=True)
class OrbitCode:
    base: Subspace
    group: CyclicGroup
    codebook: tuple[Subspace, ...]
    stab_order: int
    profile: OrbitProfile  # of the walk that listed the codebook

    def __len__(self) -> int:
        return len(self.codebook)

    def __repr__(self) -> str:
        return (
            f"OrbitCode(|C|={len(self.codebook)}, k={self.base.k}, n={self.base.n}, "
            f"group order {self.group.order})"
        )


# ---------------------------------------------------------------------------
# the orbit walk on packed rows


def _walk(u: Subspace, a: Mat, bases: list | None = None) -> OrbitProfile:
    """The profile of U under A by stepping a basis on packed rows.

    B_0 is U's reduced basis and each step forms B_j = B_{j-1} A, one row
    image per row, with no echelon form.  dim(U n U A^j) is
    k minus the rank of B_j modulo U's basis, and the walk ends at the
    first j where it is k, so U A^j = U and j is the period.  An invertible
    A permutes the Grassmannian, so the walk returns to U; A is checked
    invertible once, before the first step.  When a list `bases` is given,
    the packed rows B_j for 0 < j < period are appended to it."""
    _check_operator(u, a)
    kern = _kernel(u.field, u.n)
    rows = kern.key(a)
    if len(kern.pivots(rows)) < u.n:
        raise SingularMatrixError("the walk needs an invertible matrix; this one is singular")
    times, pivots, k = kern.times, kern.pivots, u.k
    start = tuple([kern.pack(u.basis.row(i)) for i in range(k)])
    basis, overlaps, j = start, [], 1
    while True:
        basis = [times(r, rows) for r in basis]
        d = k - len(pivots(basis, start))
        if d == k:
            return OrbitProfile(j, k, tuple(overlaps))
        if d:
            overlaps.append((j, d))
        if bases is not None:
            bases.append(basis)
        j += 1


def orbit_code(u: Subspace, g: CyclicGroup) -> OrbitCode:
    """Orbit of U under G, listed U, UA, UA^2, ... up to the period: the
    reduced echelon forms of the walk's bases."""
    bases: list = []
    profile = _walk(u, g.generator, bases)
    if g.order % profile.period:
        raise AssertionError("orbit period does not divide the group order; walk is broken")
    kern = _kernel(u.field, u.n)
    codebook = [u]
    for basis in bases:
        entries = kern.unpack(kern.echelon(basis))
        codebook.append(Subspace(u.field, u.n, u.k, Mat._trusted(u.field, u.k, u.n, entries)))
    return OrbitCode(u, g, tuple(codebook), g.order // profile.period, profile)


def stabilizer_order(u: Subspace, g: CyclicGroup) -> int:
    """Number of powers of the generator fixing U, counted by Mat multiply
    and rref over all of G: the oracle for orbit_code's stab_order."""
    _check_operator(u, g.generator)
    v = u
    stab = 0
    for _ in range(g.order):
        if v == u:
            stab += 1
        v = _act_unchecked(v, g.generator)
    return stab


def min_distance(code: OrbitCode) -> int:
    """Minimum subspace distance of the code, seen from the base point."""
    if len(code.codebook) < 2:
        raise ValueError("minimum distance needs at least two codewords")
    return code.profile.min_distance


def distance_distribution(code: OrbitCode) -> tuple[int, ...]:
    """Tuple (D_0, ..., D_k): codewords at each distance 2i from the base."""
    counts = code.profile.distribution
    if sum(counts) != len(code.codebook):
        raise RuntimeError("distance distribution identities failed")
    return counts


def conjugate_code(code: OrbitCode, l: Mat) -> OrbitCode:
    """The code of (U L) under L^-1 <A> L; cardinality and distribution are
    checked to match the original."""
    base2 = act(code.base, l)
    gen2 = l.inverse() * code.group.generator * l
    code2 = orbit_code(base2, CyclicGroup(gen2))
    if len(code2) != len(code):
        raise RuntimeError("conjugate code changed cardinality; bug")
    if distance_distribution(code2) != distance_distribution(code):
        raise RuntimeError("conjugate code changed its distance distribution; bug")
    return code2


# ---------------------------------------------------------------------------
# the orbit profile: from a difference count or from the walk


class OrbitProfile(NamedTuple):
    """The period of U under A, k = dim U, and the pairs (j, dim(U n U A^j))
    for 0 < j < period with a nonzero overlap, by increasing j.  The period
    is the code's cardinality, and U A^j lies at distance 2k - 2 overlap(j)."""

    period: int
    k: int
    overlaps: tuple[tuple[int, int], ...]

    def overlap(self, j: int) -> int:
        """dim(U n U A^j) for any integer j."""
        j %= self.period
        i = bisect_left(self.overlaps, (j,))
        if j and i < len(self.overlaps) and self.overlaps[i][0] == j:
            return self.overlaps[i][1]
        return 0 if j else self.k

    @property
    def min_distance(self) -> int | None:
        """None for a singleton code."""
        if self.period < 2:
            return None
        return 2 * self.k - 2 * max((d for _, d in self.overlaps), default=0)

    @property
    def distribution(self) -> tuple[int, ...]:
        """(D_0, ..., D_k): codewords at each distance 2i from U."""
        counts = [1] + [0] * self.k
        counts[self.k] += self.period - 1 - len(self.overlaps)
        for _, d in self.overlaps:
            counts[self.k - d] += 1
        if counts[0] != 1:
            raise RuntimeError("distance distribution identities failed")
        return tuple(counts)


def _divisors(
    u: Subspace, divisors: Sequence[tuple[Poly, int]]
) -> tuple[tuple[Poly, int], ...]:
    """The divisors p_i^e_i as a tuple of (p_i, int(e_i)), checked against U:
    every p_i over U's field, every e_i >= 1, and the degrees summing to n."""
    divisors = tuple((p, int(e)) for p, e in divisors)
    if any(p.field != u.field for p, _ in divisors):
        raise ValueError("divisors and subspace must share a field")
    if any(e < 1 for _, e in divisors):
        raise ValueError("divisor exponents must be positive")
    total = sum(int(p.degree) * e for p, e in divisors)
    if total != u.n:
        raise ValueError(f"divisor degrees sum to {total}, ambient dimension is {u.n}")
    return divisors


def _difference_profile(u: Subspace, p: Poly) -> OrbitProfile:
    """The profile for A = companion(p), p irreducible and not x, by a
    difference count instead of a walk.

    A acts on F_q^d = F_q[x]/(p) as multiplication by x, which splits the
    nonzero vectors into cosets of <x>, each a cycle of length ord(p).
    Labelling every nonzero vector of U with (coset, exponent) by
    _coset_exponents, v, w in U satisfy w = v A^i exactly when they share
    a coset and their exponents differ by i mod ord(p).  So
    |U n U A^-i| - 1 counts those label pairs, and dim(U n U A^i), equal
    to dim(U n U A^-i), is its log_q; only nonzero counts are read back.
    Each coset's exponent differences are counted into one dict as it is
    labelled, so the count holds only the shifts that occur."""
    kern = _kernel(u.field, u.n)
    step = kern.stepper(companion(p))
    order = poly_order(p)
    todo = set(kern.span([kern.pack(u.basis.row(i)) for i in range(u.k)])[1:])
    nonzero = len(todo)
    counts = Counter()
    while todo:
        exponents = _coset_exponents(kern, step, p, order, todo)
        counts.update((a - b) % order for a in exponents for b in exponents)
    counts = dict(counts)  # CPython 3.11 specialises a dict's subscripts, not a Counter's
    shifts = sorted(counts)[1:]  # counts[0] = nonzero
    period = next((j for j in shifts if counts[j] == nonzero), order)
    logs = {u.field.q**d - 1: d for d in range(1, u.k + 1)}
    overlaps = tuple((j, logs.get(counts[j])) for j in shifts if j < period)
    if any(d is None for _, d in overlaps):
        raise AssertionError("an intersection size is not a power of q; count is broken")
    return OrbitProfile(period, u.k, overlaps)


# The cost of one giant step (kern.times by x^-m's packed rows and a dict
# lookup) over one baby step (step, a dict store and a set lookup).  Timed
# under CPython 3.11 on x86-64: 4.1 at GF(2) n = 12, 5.3 at n = 16, 3.4 at
# GF(4) n = 6 and 5.0 at GF(3) n = 7; whole counts with k = 2, 3 over GF(2)
# n = 16-24, GF(4) n = 8 and GF(3) n = 9, 10 ran fastest at 3 or 4.
_GIANT_PER_BABY = 4


def _baby_steps(unlabelled: int, order: int) -> int:
    """The table size m of _coset_exponents for a cycle of length order
    and the vectors still unlabelled besides its start.

    m baby steps and at most unlabelled * order / m giant steps, each
    _GIANT_PER_BABY baby steps' worth, cost the least near
    m = sqrt(_GIANT_PER_BABY * unlabelled * order), about 2m in all.  When
    2m reaches order, stepping round the whole cycle costs no more, and
    m = order asks for exactly that."""
    m = math.isqrt(_GIANT_PER_BABY * unlabelled * order) + 1
    return order if 2 * m >= order else m


def _coset_exponents(kern, step, p: Poly, order: int, todo: set) -> list[int]:
    """Pop a vector v from todo, remove every w = v x^e of v's coset of <x>
    from it, and return the exponents e, v's own 0 first.

    Baby-step giant-step (Shanks 1971), with m from _baby_steps: stepping
    v to v x^i for i < m labels the vectors of todo it meets and fills a
    table.  Each vector w still in todo then takes giant steps w x^-m, one
    kern.times by the packed rows of x^(ord - m) mod p, until w x^-mt
    meets v x^i, so e = i + m t; a w that misses for every m t < ord lies
    in another coset.  At m = ord the stepping goes round the whole cycle
    and no giant step runs."""
    v = todo.pop()
    exponents = [0]
    if not todo:
        return exponents
    m = _baby_steps(len(todo), order)
    table = {v: 0}
    for e in range(1, m):
        v = step(v)
        table[v] = e
        if v in todo:
            todo.remove(v)
            exponents.append(e)
            if not todo:
                return exponents
    if m == order:
        return exponents
    giant = kern.multiplier(step, kern.pack(x_power(p, order - m)))
    times, shifts = kern.times, range(m, order, m)
    for w in list(todo):
        x = w
        for shift in shifts:
            x = times(x, giant)
            i = table.get(x)
            if i is not None:
                # every exponent below m was stepped, so the first hit is e
                todo.remove(w)
                exponents.append(i + shift)
                break
    return exponents


# Label-pair increments that cost as much as one row of one walk step (its
# image and its share of the rank modulo U).  Timed under CPython 3.11 on
# x86-64, the crossover lay at 21-27 over GF(2) n = 10-12, 11-13 over GF(4)
# n = 5-7 and 36-39 over GF(3) n = 7, 8; the lowest decides.
_PAIRS_PER_WALK_ROW = 12


def _count_is_cheaper(u: Subspace, p: Poly) -> bool:
    """Whether the difference count for U under companion(p), p irreducible
    and not x, costs no more than the walk.

    The count makes at most s * min(s, ord(p)) label pairs for the
    s = q^k - 1 nonzero vectors of U, and the walk at most ord(p) steps of
    k row images.  U = F_q^n is left out: the walk stops after one step."""
    if u.k == u.n:
        return False
    size, order = u.field.q**u.k - 1, poly_order(p)
    return size * min(size, order) <= _PAIRS_PER_WALK_ROW * u.k * order


def orbit_profile(u: Subspace, divisors: Sequence[tuple[Poly, int]]) -> OrbitProfile:
    """The profile of U under A = diag(companion(p_i^e_i)), for divisors
    p_i^e_i with p_i irreducible.

    A single irreducible p other than x (e = 1) takes the difference count
    of _difference_profile when _count_is_cheaper says so; every other
    generator (a reducible p included), and a U whose label pairs would
    cost more than the walk, takes the orbit walk."""
    divisors = _divisors(u, divisors)
    if len(divisors) == 1:
        (p, e), = divisors
        # p = x has degree 1, so U = F_q^1 and _count_is_cheaper keeps it out
        if e == 1 and is_irreducible(p) and _count_is_cheaper(u, p):
            return _difference_profile(u, p)
    return _walk(u, companion_diag(divisors))


# ---------------------------------------------------------------------------
# block structure and bounds


def _block_profile(key: tuple[tuple[tuple[Poly, int], ...], Mat]) -> OrbitProfile:
    """The profile of a row space under diag(companion(p_i^e_i)), for the
    key (divisors, basis).  A structure's or sub-block's basis is already
    canonical (see block_structure), so no rref runs."""
    divisors, basis = key
    return orbit_profile(Subspace(basis.field, basis.cols, basis.rows, basis), divisors)


@dataclass(frozen=True)
class SubBlock:
    index: int
    divisor: tuple[Poly, int]
    matrix: Mat  # k_i x d_i slice of the pivot rows, in RREF
    # the structure's profiles keyed by (divisors, basis), which the
    # structure and its sub-blocks share: equal keys are one (W, generator) pair
    profiles: _Memo = dc_field(repr=False, compare=False)

    @property
    def k(self) -> int:
        return self.matrix.rows

    @property
    def degree(self) -> int:
        return self.matrix.cols

    @property
    def profile(self) -> OrbitProfile | None:
        """The profile of the sub-block's row space W under its own
        companion block, computed on first use and shared with every
        sibling that has the same divisor and matrix: its period is the
        component code's size N_i.  None for an empty sub-block."""
        if self.k == 0:
            return None
        return self.profiles[(self.divisor,), self.matrix]


@dataclass(frozen=True)
class BlockStructure:
    subspace: Subspace
    divisors: tuple[tuple[Poly, int], ...]
    blocks: tuple[SubBlock, ...]
    profiles: _Memo = dc_field(repr=False, compare=False)

    @property
    def k(self) -> int:
        return self.subspace.k

    @property
    def profile(self) -> OrbitProfile:
        """The whole code's profile under the generator, computed on first
        use.  A single block has the same divisors and basis, so it shares
        that block's profile."""
        return self.profiles[self.divisors, self.subspace.basis]


def _block_starts(degrees: Sequence[int]) -> list[int]:
    """Column offsets [0, d_1, d_1 + d_2, ..., n] of consecutive blocks."""
    return list(accumulate(degrees, initial=0))


def _columns(basis: Mat, rows: Sequence[int], lo: int, hi: int) -> Mat:
    """The given rows of a basis, restricted to columns lo .. hi - 1."""
    entries = tuple(e for r in rows for e in basis.row(r)[lo:hi])
    return Mat._trusted(basis.field, len(rows), hi - lo, entries)


def block_structure(u: Subspace, divisors: Sequence[tuple[Poly, int]]) -> BlockStructure:
    """Split an RREF basis along the blocks of diag(companion(p_i^e_i)).

    Sub-block i holds the rows whose pivot column lies in block i's column
    range, restricted to those columns.  Each such row keeps its pivot, the
    entries before it are zero, and every other row is zero in its column,
    so the sub-block is in RREF with full row rank: the canonical basis of
    its row space.  No orbit work happens here: the structure and each
    sub-block compute their profiles on first use.
    """
    divisors = _divisors(u, divisors)
    degrees = [int(p.degree) * e for p, e in divisors]
    # the basis is in RREF, so a row's pivot is its first nonzero column
    pivots = [next(c for c, v in enumerate(u.basis.row(r)) if v) for r in range(u.k)]
    starts = _block_starts(degrees)
    profiles = _Memo(_block_profile)
    blocks = []
    for i, (p, e) in enumerate(divisors):
        lo, hi = starts[i], starts[i + 1]
        row_idx = tuple(r for r, c in enumerate(pivots) if lo <= c < hi)
        matrix = _columns(u.basis, row_idx, lo, hi)
        blocks.append(SubBlock(i, (p, e), matrix, profiles))
    return BlockStructure(u, divisors, tuple(blocks), profiles)


def component_codes(bs: BlockStructure) -> tuple[OrbitCode | None, ...]:
    """Orbit code of each nonempty sub-block under its own companion block;
    empty sub-blocks (no pivot rows) report as None."""
    return tuple(
        orbit_code(subspace(blk.matrix), CyclicGroup(companion_diag((blk.divisor,))))
        if blk.k else None
        for blk in bs.blocks
    )


def block_bound(bs: BlockStructure) -> tuple[int, int]:
    """(per-component bound, lcm of component-code sizes).

    Each nonempty component contributes its worst self-overlap over its own
    nonzero residues, 0 if it has none; a component whose orbit is a fixed
    point (N_i = 1) contributes its full dimension k_i, its overlap(1).
    """
    profiles = [blk.profile for blk in bs.blocks if blk.k]
    total = sum(max((d for _, d in f.overlaps), default=f.overlap(1)) for f in profiles)
    return 2 * bs.k - 2 * total, math.lcm(*(f.period for f in profiles))


def orbit_period(u: Subspace, a: Mat) -> int:
    """Smallest j >= 1 with U A^j = U; equals the orbit-code cardinality."""
    return _walk(u, a).period


def block_bound_refined(bs: BlockStructure) -> int:
    """Bound from a single global power: j runs over the nonzero residues of
    the code's actual period, components at residue j mod N_i = 0 contribute
    their full k_i, others their overlap at that residue.

    The sub-block spaces of U M^j are exactly (sub-block space of U) M_i^j,
    so every component orbit size N_i divides the global period and the
    summed overlap at residue j is an upper bound for dim(U n U M^j).  For
    block-diagonal bases the period equals lcm(N_i) and the bound is exact;
    a basis whose period exceeds that lcm admits a power returning every
    component without fixing the whole space, which drags the bound to the
    trivial 0.  Only shifts where some component has a nonzero overlap or
    returns to itself are summed: at every other shift the sum is 0."""
    profiles = [blk.profile for blk in bs.blocks if blk.k]
    period = bs.profile.period
    if period % math.lcm(*(f.period for f in profiles)):
        raise AssertionError("component orbit sizes must divide the code period")
    shifts = {j for f in profiles for r in (f.period, *dict(f.overlaps))
              for j in range(r, period, f.period)}
    sums = (sum(f.overlap(j) for f in profiles) for j in shifts)
    worst = max(sums, default=bs.k if period == 1 else 0)
    return 2 * bs.k - 2 * worst
