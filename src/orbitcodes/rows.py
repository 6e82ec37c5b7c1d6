"""Packed rows: the kernel under the orbit walk and the group closure.

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
fields the scalar multiples of a row come from one routine (scale) and
are cached per (row, scalar) for the rows that stay fixed, the rows of a
matrix key or of a subspace's reduced basis.  rank is a rank-only
elimination, with no back substitution and no sort, modulo the span of a
reduced echelon basis.  For a companion matrix A = companion(p),
stepper(A) maps v to v A by a shift by one column plus the last entry of
v times A's last row.  The same step builds the key of multiplication by
any residue r of F_q[x]/(p) (multiplier), row i being r x^i, so v times
a power of x costs one times.

codes._walk steps a basis B_j = B_{j-1} A with times and reads
dim(U n U A^j) from rank modulo U; codes._difference_profile labels the
nonzero vectors of a subspace (span) in the cycles of multiplication by
x, with baby steps by stepper and giant steps by times on the multiplier
key of x^-m; groups.closure multiplies matrix keys (product) and moves
rows by times to build a stabilizer chain.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import xor
from typing import Sequence

from .field import GF, _Memo
from .matrix import Mat


class _Keys:
    """What both kernels build on their pack and times: matrix keys and
    their products."""

    def key(self, a: Mat) -> tuple:
        """A's packed rows: row i is e_i A."""
        return tuple([self.pack(a.row(i)) for i in range(self.n)])

    def product(self, a: tuple, b: tuple) -> tuple:
        """The key of A B from the keys of A and B: row i is (e_i A) B."""
        times = self.times
        return tuple([times(r, b) for r in a])

    def multiplier(self, step, r) -> tuple:
        """For step(v) = v A, A = companion(p): the key of the matrix of
        multiplication by the residue r on F_q[x]/(p), whose row i is
        r x^i = step^i(r)."""
        key = [r]
        for _ in range(self.n - 1):
            key.append(step(key[-1]))
        return tuple(key)


class _Bits(_Keys):
    """GF(2) rows packed into ints, column j at bit n-1-j: a row reads as a
    binary numeral, its pivot is its highest set bit, and a reduced echelon
    basis lists its rows in decreasing order."""

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

    def stepper(self, a: Mat):
        """step(v) = v A for a companion matrix A: v shifted one column
        right, plus A's last row when v's last entry is set."""
        feedback = self.pack(a.row(self.n - 1))
        return lambda v: (v >> 1) ^ feedback if v & 1 else v >> 1

    @staticmethod
    def span(rows) -> list[int]:
        """Every vector of the span of independent rows, zero first."""
        vecs = [0]
        for r in rows:
            vecs += [v ^ r for v in vecs]
        return vecs

    @staticmethod
    def echelon(rows) -> tuple[int, ...]:
        """Reduced echelon basis of the span of the rows."""
        basis: list[int] = []
        for r in rows:
            for b in basis:
                if r ^ b < r:  # b's pivot bit is set in r
                    r ^= b
            if r:
                top = 1 << (r.bit_length() - 1)
                basis = [b ^ r if b & top else b for b in basis]
                basis.append(r)
        basis.sort(reverse=True)
        return tuple(basis)

    @staticmethod
    def rank(rows, modulo: tuple[int, ...] = ()) -> int:
        """The rank of the rows modulo the span of a reduced echelon basis."""
        pivots: dict[int, int] = {}  # pivot bit length -> row
        for r in rows:
            for b in modulo:
                if r ^ b < r:
                    r ^= b
            while r:
                top = r.bit_length()
                if top not in pivots:
                    pivots[top] = r
                    break
                r ^= pivots[top]
        return len(pivots)


class _Lanes(_Keys):
    """Rows over GF(q), q = p^m > 2, packed into ints of base-p digit lanes
    (see the module docstring).  Scalars are lane-packed elements too: the
    value of an element's slot in a row, so an entry is read by a shift
    and a mask, and a row's pivot entry is the row shifted right to its
    top slot."""

    def __init__(self, field: GF, n: int):
        p, m = field.p, field.m
        self.n, self.q = n, field.q
        lane = 1 if p == 2 else (2 * p - 2).bit_length()
        self.width = width = m * lane  # bits per element
        self.mask = (1 << width) - 1
        digit = (1 << lane) - 1
        _, mul, neg, inv = field.lookups
        # element codes to lane-packed elements and back; the identity
        # unless p is odd and m > 1
        self._lanes = lanes = _Memo(
            lambda c: sum(d << (i * lane) for i, d in enumerate(field.digits(c)))
        )
        codes = _Memo(
            lambda x: field.code([(x >> (i * lane)) & digit for i in range(m)])
        )
        self.neg = _Memo(lambda x: lanes[neg[codes[x]]])
        self.inv = _Memo(lambda x: lanes[inv[codes[x]]])
        self._mul = _Memo(lambda x: _Memo(lambda y: lanes[mul[codes[x]][codes[y]]]))
        shifts, mask = range((n - 1) * width, -1, -width), self.mask
        self._row_codes = _Memo(lambda r: tuple([codes[(r >> s) & mask] for s in shifts]))
        # multiples[r][x] = x r, for rows that stay fixed
        self.multiples = _Memo(lambda r: _Memo(partial(self.scale, r)))
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

    def pack(self, row: Sequence[int]) -> int:
        v, width, lanes = 0, self.width, self._lanes
        for c in row:
            v = v << width | lanes[c]
        return v

    def unpack(self, key: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(chain.from_iterable(map(self._row_codes.__getitem__, key)))

    def scale(self, r: int, x: int) -> int:
        """The row x r, for a lane-packed scalar x."""
        m, mask, width = self._mul[x], self.mask, self.width
        out = shift = 0
        while r:
            y = r & mask
            if y:
                out |= m[y] << shift
            r >>= width
            shift += width
        return out

    def _lead(self, r: int) -> int:
        """The shift of the nonzero row r's pivot slot."""
        return (r.bit_length() - 1) // self.width * self.width

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

    def stepper(self, a: Mat):
        """step(v) = v A for a companion matrix A: v shifted one column
        right, plus v's last entry times A's last row."""
        add, mask, width = self.add, self.mask, self.width
        feedback = self.multiples[self.pack(a.row(self.n - 1))]

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

    def echelon(self, rows) -> tuple[int, ...]:
        """Reduced echelon basis of the span of the rows."""
        add, scale, neg, mask = self.add, self.scale, self.neg, self.mask
        basis: dict[int, int] = {}  # pivot shift -> row with a 1 there
        for r in rows:
            for s, b in basis.items():
                x = (r >> s) & mask
                if x:
                    r = add(r, scale(b, neg[x]))
            if not r:
                continue
            s = self._lead(r)
            if r >> s != 1:
                r = scale(r, self.inv[r >> s])
            for t, b in basis.items():
                x = (b >> s) & mask
                if x:
                    basis[t] = add(b, scale(r, neg[x]))
            basis[s] = r
        return tuple(sorted(basis.values(), reverse=True))

    def rank(self, rows, modulo: tuple[int, ...] = ()) -> int:
        """The rank of the rows modulo the span of a reduced echelon basis,
        whose rows' multiples are cached."""
        add, scale, neg, inv, mul = self.add, self.scale, self.neg, self.inv, self._mul
        mask, width = self.mask, self.width
        fixed = [(self._lead(b), self.multiples[b]) for b in modulo]
        pivots: dict[int, tuple[int, int]] = {}  # pivot shift -> (row, 1 / pivot)
        for r in rows:
            for s, multiples in fixed:
                x = (r >> s) & mask
                if x:
                    r = add(r, multiples[neg[x]])
            while r:
                s = (r.bit_length() - 1) // width * width
                pivot = pivots.get(s)
                if pivot is None:
                    pivots[s] = r, inv[r >> s]
                    break
                b, b_inv = pivot
                r = add(r, scale(b, mul[neg[r >> s]][b_inv]))
        return len(pivots)


def _kernel(field: GF, n: int):
    return _Bits(n) if field.q == 2 else _Lanes(field, n)
