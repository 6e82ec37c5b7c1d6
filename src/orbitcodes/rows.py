"""Packed rows: the kernel under the orbit walk, the group closure,
elementary divisors and matrix orders.

A row vector of F_q^n is packed into one int, so that it hashes cheaply
and its image under a matrix is quick to form.  Over GF(2) (_Bits)
column j is bit n-1-j.  Over GF(q), q = p^m > 2 (_Lanes), column j's
element takes m base-p digit lanes, column 0 the most significant and
each element's top digit its highest lane; the lanes are one bit wide
for p = 2, where addition is XOR, and w = (2p-2).bit_length() bits for
odd p, where addition is one int add and one lane correction (rows of
small-field elements packed into machine words: Boothby and Bradshaw
2009, "Bitslicing and the Method of Four Russians over larger finite
fields").  Either way int order is the order of the rows' element-code
tuples, so a reduced echelon basis lists its rows in decreasing order and
unpacks to the RREF rows of Mat and rref.

A matrix M is keyed by the tuple of its packed rows, row i being e_i M,
and times(v, key) forms v M: the sum of M's rows scaled by v's entries.
Over GF(2) that is the XOR of the rows at v's set bits; over larger
fields the scalar multiples of a row come from one routine (scale),
lane-parallel over GF(2^m) and GF(p) (see _LaneTables), and are cached
per (row, scalar) for the rows that stay fixed, the rows of a matrix key
or of a subspace's reduced basis.  Those row memos belong to one kernel,
which a caller builds for one job and drops; the field's tables under it
are built once per (field, n) and shared (_lane_tables, a bounded
cache).  product forms the key of A B, and plus_scalar that of M + cI,
so rcf's p(A) and groups' A^N = I check run on keys.  pivots, the one
elimination, runs forward only modulo the span of a reduced echelon
basis and returns a row per pivot, so their count is a rank; echelon
back-substitutes over them.  Multiplication by x on F_q[x]/(p), for a
monic p of degree n, is stepper(p): v x is v shifted by one column plus
v's last entry times the feedback row, -p's low coefficients packed (the
last row of companion(p)), so no matrix is built.  multiplier(p, e) is
the key of multiplication by x^e, row i being x^(e+i) mod p, so v times
a power of x costs one times.

codes._walk steps a basis B_j = B_{j-1} A with times and reads
dim(U n U A^j) from its pivots modulo U (orbit_code lists the echelon of
each B_j); codes._difference_profile labels the nonzero vectors of a
subspace (span) in the cycles of multiplication by x, with baby steps by
stepper(p) and giant steps by times on multiplier(p, ord - m), and
groups._minimal_polynomial is the char_poly of multiplier(p, k);
groups.closure multiplies matrix keys (product) and moves rows by times
to build a stabilizer chain; rcf.elementary_divisors reads the ranks of
p(A)^j from pivots, and sampling.random_full_rank the rank of each draw.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain
from operator import xor
from typing import Sequence

from .field import GF, _Memo
from .matrix import Mat
from .numtheory import power
from .poly import Poly, x_power


class _Keys:
    """What both kernels build on their pack, times and stepper: matrix
    keys, their products and multiplication by x^e mod p."""

    def key(self, a: Mat) -> tuple:
        """A's packed rows: row i is e_i A."""
        return tuple([self.pack(a.row(i)) for i in range(a.rows)])

    def plus_scalar(self, key: tuple, c: int) -> tuple:
        """The key of M + cI from the key of a square M, for an element
        code c: c added into each row's diagonal slot."""
        x, add, width, n = self.pack((c,)), self.add, self.width, self.n
        return tuple([add(r, x << (n - 1 - i) * width) for i, r in enumerate(key)])

    def product(self, a: tuple, b: tuple) -> tuple:
        """The key of A B from the keys of A and B: row i is (e_i A) B."""
        times = self.times
        return tuple([times(r, b) for r in a])

    def multiplier(self, p: Poly, e: int) -> tuple:
        """The key of multiplication by x^e on F_q[x]/(p), p monic of
        degree n: row i is x^(e+i) mod p, x^e stepped i times."""
        step, key = self.stepper(p), [self.pack(x_power(p, e))]
        for _ in range(self.n - 1):
            key.append(step(key[-1]))
        return tuple(key)


class _Bits(_Keys):
    """GF(2) rows packed into ints, column j at bit n-1-j: a row reads as a
    binary numeral, its pivot is its highest set bit, and a reduced echelon
    basis lists its rows in decreasing order."""

    width = 1  # bits per element
    add = staticmethod(xor)

    def __init__(self, n: int):
        self.n = n
        self._bits = _Memo(lambda r: tuple(map(int, format(r, f"0{n}b"))))

    @staticmethod
    def pack(row: Sequence[int]) -> int:
        v = 0
        for e in row:
            v = v << 1 | e
        return v

    def unpack(self, key: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(chain.from_iterable(map(self._bits.__getitem__, key)))

    def times(self, v: int, rows: tuple[int, ...]) -> int:
        """v M for the matrix M with packed rows `rows`: the XOR of the rows
        at the set bits of v, row i at bit n-1-i."""
        w, i = 0, self.n
        while v:
            i -= 1
            if v & 1:
                w ^= rows[i]
            v >>= 1
        return w

    def stepper(self, p: Poly):
        """step(v) = v x mod p, p monic of degree n: v shifted one column
        right, plus p's low coefficients (their own negatives over GF(2))
        when v's last entry is set."""
        feedback = self.pack(p.coeffs[:-1])
        return lambda v: (v >> 1) ^ feedback if v & 1 else v >> 1

    @staticmethod
    def span(rows) -> list[int]:
        """Every vector of the span of independent rows, zero first."""
        vecs = [0]
        for r in rows:
            vecs += [v ^ r for v in vecs]
        return vecs

    @staticmethod
    def pivots(rows, modulo: tuple[int, ...] = ()) -> dict[int, int]:
        """Forward elimination of the rows modulo the span of a reduced
        echelon basis: a row per pivot, keyed by the pivot's bit length, so
        there are as many as the rank of the rows modulo that span."""
        pivots: dict[int, int] = {}
        for r in rows:
            for b in modulo:
                if r ^ b < r:  # b's pivot bit is set in r
                    r ^= b
            while r:
                top = r.bit_length()
                if top not in pivots:
                    pivots[top] = r
                    break
                r ^= pivots[top]
        return pivots

    @classmethod
    def echelon(cls, rows) -> tuple[int, ...]:
        """Reduced echelon basis of the span of the rows: the pivot rows
        back-substituted from the last pivot column up."""
        basis: list[int] = []
        for r in sorted(cls.pivots(rows).values()):
            for b in basis:
                if r ^ b < r:
                    r ^= b
            basis.append(r)
        return tuple(reversed(basis))


class _LaneTables:
    """The GF(q) arithmetic of _Lanes on rows of n, q = p^m > 2: lane-packed
    scalars with their products, negatives and inverses, lane-wise add and
    scale.  None of it depends on the rows a kernel meets, so _lane_tables
    keeps one per (field, n) for every kernel built on it.

    scale(r, x) is the row x r.  Over GF(2^m) it is lane-parallel: x y is
    the sum of y_j x t^j over the digits y_j of y (t the generator of the
    field over GF(2)), so x r is the XOR over the m bit-planes j of
    ((r >> j) & low) * code(x t^j), low the lowest bit of every slot.  Over
    GF(p) it is double-and-add with the lane-wise add: numtheory.power with
    add as its product, at most 2 log2(p) whole-row adds.  Either is taken
    when its count of whole-row steps (m planes, or the bit length of p) is
    below n, the slots a slot-by-slot loop visits; otherwise, and always
    for odd p with m > 1, scale goes slot by slot."""

    def __init__(self, field: GF, n: int):
        p, m = field.p, field.m
        lane = 1 if p == 2 else (2 * p - 2).bit_length()
        self.width = width = m * lane  # bits per element
        self.mask = mask = (1 << width) - 1
        digit = (1 << lane) - 1
        _, mul, neg, inv = field.lookups
        # element codes to lane-packed elements and back; the identity
        # unless p is odd and m > 1
        self.lanes = lanes = _Memo(
            lambda c: sum(d << (i * lane) for i, d in enumerate(field.digits(c)))
        )
        self.codes = codes = _Memo(
            lambda x: field.code([(x >> (i * lane)) & digit for i in range(m)])
        )
        self.neg = _Memo(lambda x: lanes[neg[codes[x]]])
        self.inv = _Memo(lambda x: lanes[inv[codes[x]]])
        self.mul = products = _Memo(
            lambda x: _Memo(lambda y: lanes[mul[codes[x]][codes[y]]])
        )
        if p == 2:
            self.add = xor
        else:
            ones = ((1 << (n * m * lane)) - 1) // digit  # the low bit of every lane
            top = lane - 1
            bias = ((1 << top) - p) * ones

            def lane_add(a: int, b: int) -> int:
                # every lane of s is at most 2p - 2; its top bit after the
                # bias is set exactly where the lane is >= p
                s = a + b
                return s - p * (((s + bias) >> top) & ones)

            self.add = lane_add
        # whole-row steps where they are fewer than the n slots
        if p == 2 and m < n:
            low = ((1 << (n * width)) - 1) // mask
            planes = _Memo(lambda x: [mul[x][1 << j] for j in range(m)])

            def bit_planes(r: int, x: int) -> int:
                out = 0
                for j, c in enumerate(planes[x]):
                    out ^= ((r >> j) & low) * c
                return out

            self.scale = bit_planes
        elif m == 1 and p.bit_length() < n:

            def double_and_add(r: int, x: int) -> int:
                return power(r, x, lane_add, 0)

            self.scale = double_and_add
        else:

            def slot_by_slot(r: int, x: int) -> int:
                row, out, shift = products[x], 0, 0
                while r:
                    y = r & mask
                    if y:
                        out |= row[y] << shift
                    r >>= width
                    shift += width
                return out

            self.scale = slot_by_slot


@lru_cache(maxsize=16)
def _lane_tables(field: GF, n: int) -> _LaneTables:
    return _LaneTables(field, n)


class _Lanes(_Keys):
    """Rows over GF(q), q = p^m > 2, packed into ints of base-p digit lanes
    (see the module docstring).  Scalars are lane-packed elements too: the
    value of an element's slot in a row, so an entry is read by a shift
    and a mask, and a row's pivot entry is the row shifted right to its
    top slot.  The field's arithmetic comes from _lane_tables; the memos
    keyed by rows are this kernel's own."""

    def __init__(self, field: GF, n: int):
        t = _lane_tables(field, n)
        self.n, self.q, self.width, self.mask = n, field.q, t.width, t.mask
        self.add, self.scale, self.neg, self.inv = t.add, t.scale, t.neg, t.inv
        self._lanes, self._mul, codes = t.lanes, t.mul, t.codes
        shifts, mask = range((n - 1) * t.width, -1, -t.width), t.mask
        self._row_codes = _Memo(lambda r: tuple([codes[(r >> s) & mask] for s in shifts]))
        # multiples[r][x] = x r, for rows that stay fixed
        self.multiples = _Memo(lambda r: _Memo(partial(t.scale, r)))

    def pack(self, row: Sequence[int]) -> int:
        v, width, lanes = 0, self.width, self._lanes
        for c in row:
            v = v << width | lanes[c]
        return v

    def unpack(self, key: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(chain.from_iterable(map(self._row_codes.__getitem__, key)))

    def times(self, v: int, rows: tuple[int, ...]) -> int:
        """v M for the matrix M with packed rows `rows`: the sum of v_i
        times row i, from the rows' cached multiples."""
        add, mask, width, multiples = self.add, self.mask, self.width, self.multiples
        w, i = 0, self.n
        while v:
            i -= 1
            x = v & mask
            if x:
                w = add(w, multiples[rows[i]][x])
            v >>= width
        return w

    def product(self, a: tuple, b: tuple) -> tuple:
        """The key of A B from the keys of A and B, column k of A at a time:
        row i gains A_ik times row k of B.  Each multiple of a row of B is
        scaled at most once and kept for this product only: the B of a
        Horner step or a square-and-multiply rarely comes back."""
        add, scale, mask, width = self.add, self.scale, self.mask, self.width
        out = [0] * len(a)
        for k, row in enumerate(b):
            s = (self.n - 1 - k) * width
            multiples = {1: row}  # the lane-packed 1 is 1
            for i, r in enumerate(a):
                x = (r >> s) & mask
                if x:
                    y = multiples.get(x)
                    if y is None:
                        y = multiples[x] = scale(row, x)
                    out[i] = add(out[i], y)
        return tuple(out)

    def stepper(self, p: Poly):
        """step(v) = v x mod p, p monic of degree n: v shifted one column
        right, plus v's last entry times -p's low coefficients, the row of
        p's low coefficients scaled by the lane-packed -1."""
        add, mask, width = self.add, self.mask, self.width
        feedback = self.multiples[self.scale(self.pack(p.coeffs[:-1]), self.neg[1])]

        def step(v: int) -> int:
            x = v & mask
            v >>= width
            return add(v, feedback[x]) if x else v

        return step

    def span(self, rows) -> list[int]:
        """Every vector of the span of independent rows, zero first."""
        add, scalars = self.add, [self._lanes[c] for c in range(1, self.q)]
        vecs = [0]
        for r in rows:
            vecs += [add(v, w) for w in [self.scale(r, x) for x in scalars] for v in vecs]
        return vecs

    def pivots(self, rows, modulo: tuple[int, ...] = ()) -> dict[int, int]:
        """Forward elimination of the rows modulo the span of a reduced
        echelon basis, whose rows' multiples are cached: a row per pivot,
        keyed by the pivot's shift, so there are as many as the rank of
        the rows modulo that span."""
        add, neg, inv, mask, width = self.add, self.neg, self.inv, self.mask, self.width
        # echelon passes no basis, and then builds no list
        fixed = modulo and [
            ((b.bit_length() - 1) // width * width, self.multiples[b]) for b in modulo
        ]
        pivots: dict[int, int] = {}
        for r in rows:
            for s, multiples in fixed:
                x = (r >> s) & mask
                if x:
                    r = add(r, multiples[neg[x]])
            while r:
                s = (r.bit_length() - 1) // width * width
                b = pivots.get(s)
                if b is None:
                    pivots[s] = r
                    break
                r = add(r, self.scale(b, self._mul[neg[r >> s]][inv[b >> s]]))
        return pivots

    def echelon(self, rows) -> tuple[int, ...]:
        """Reduced echelon basis of the span of the rows: the pivot rows
        scaled to a leading 1 and back-substituted from the last pivot
        column up."""
        add, scale, neg, inv, mask = self.add, self.scale, self.neg, self.inv, self.mask
        basis: list[tuple[int, int]] = []  # (pivot shift, row with a 1 there)
        for s, r in sorted(self.pivots(rows).items()):
            if r >> s != 1:
                r = scale(r, inv[r >> s])
            for t, b in basis:
                x = (r >> t) & mask
                if x:
                    r = add(r, scale(b, neg[x]))
            basis.append((s, r))
        return tuple([b for _, b in reversed(basis)])


def _kernel(field: GF, n: int):
    return _Bits(n) if field.q == 2 else _Lanes(field, n)
