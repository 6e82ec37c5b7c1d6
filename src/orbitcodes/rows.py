"""Packed rows: the kernel under the orbit walk and the group closure.

A row vector of F_q^n is packed so that it hashes cheaply and its image
under a matrix is quick to form.  Over GF(2) it is an int with column j
at bit n-1-j; over larger fields it is a tuple of element codes.  A
matrix M is keyed by the tuple of its packed rows, row i being e_i M, and
times(v, key) forms v M: over GF(2) the XOR of M's rows at v's set bits,
above it a sum reduced with the field's lookups.  imager(A) hands out a
memo of times indexed as image[v] = v A, filled on first use, so each
distinct row is mapped once and no q^n table is built: one path serves
every field size.  For a companion matrix A = companion(p), stepper(A)
maps v to v A without a memo: a shift by one column plus the last entry
of v times A's last row (over GF(2) a shift and an XOR).  The same step
builds the key of multiplication by any residue r of F_q[x]/(p)
(multiplier), row i being r x^i, so v times a power of x costs one times.

codes._walk reduces packed rows to canonical echelon keys to walk the
orbit of a subspace; codes._difference_profile labels the nonzero vectors
of a subspace (span) in the cycles of multiplication by x, with baby
steps by stepper and giant steps by times on the multiplier key of
x^-m; groups.closure multiplies matrix keys (product) and moves rows by
times to build a stabilizer chain.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Sequence

from .field import GF, _Memo
from .matrix import Mat


class _Keys:
    """What both kernels build on their pack and times: matrix keys, their
    products and memoized row images."""

    def key(self, a: Mat) -> tuple:
        """A's packed rows: row i is e_i A."""
        return tuple([self.pack(a.row(i)) for i in range(self.n)])

    def product(self, a: tuple, b: tuple) -> tuple:
        """The key of A B from the keys of A and B: row i is (e_i A) B."""
        times = self.times
        return tuple([times(r, b) for r in a])

    def imager(self, a: Mat) -> _Memo:
        """image[v] = v A."""
        return _Memo(partial(self.times, rows=self.key(a)))

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


class _Tuples(_Keys):
    """Rows over GF(q), q > 2, as tuples of element codes reduced with the
    field's lookups.  A reduced echelon basis also lists its rows in
    decreasing order, since an earlier pivot is a larger leading entry."""

    def __init__(self, field: GF, n: int):
        self.n, self.q = n, field.q
        self.zero = (0,) * n
        self.add, self.mul, self.neg, self.inv = field.lookups

    pack = staticmethod(tuple)

    @staticmethod
    def unpack(key: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        return tuple(chain.from_iterable(key))

    def axpy(self, r: tuple[int, ...], x: int, b: tuple[int, ...]) -> tuple[int, ...]:
        """The row r + x b."""
        add, m = self.add, self.mul[x]
        return tuple([add[s][m[t]] for s, t in zip(r, b)])

    def times(self, v: tuple[int, ...], rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        """v M for the matrix M with rows `rows`: the sum of v_i times row i."""
        axpy, w = self.axpy, self.zero
        for x, g in zip(v, rows):
            if x:
                w = axpy(w, x, g)
        return w

    def stepper(self, a: Mat):
        """step(v) = v A for a companion matrix A: v shifted one column
        right, plus v's last entry times A's last row."""
        axpy, feedback = self.axpy, a.row(self.n - 1)

        def step(v: tuple[int, ...]) -> tuple[int, ...]:
            w = (0,) + v[:-1]
            return axpy(w, v[-1], feedback) if v[-1] else w

        return step

    def span(self, rows) -> list[tuple[int, ...]]:
        """Every vector of the span of independent rows, zero first."""
        axpy = self.axpy
        vecs = [self.zero]
        for r in rows:
            vecs += [axpy(v, x, r) for x in range(1, self.q) for v in vecs]
        return vecs

    def echelon(self, rows) -> tuple[tuple[int, ...], ...]:
        """Reduced echelon basis of the span of the rows."""
        axpy, mul, neg, inv = self.axpy, self.mul, self.neg, self.inv
        basis: list[tuple[int, tuple[int, ...]]] = []  # (pivot column, row)
        for r in rows:
            for c, b in basis:
                if r[c]:
                    r = axpy(r, neg[r[c]], b)
            c = next((j for j, x in enumerate(r) if x), None)
            if c is None:
                continue
            if r[c] != 1:
                m = mul[inv[r[c]]]
                r = tuple([m[t] for t in r])
            basis = [(cb, axpy(b, neg[b[c]], r) if b[c] else b) for cb, b in basis]
            basis.append((c, r))
        return tuple(sorted((b for _, b in basis), reverse=True))


def _kernel(field: GF, n: int):
    return _Bits(n) if field.q == 2 else _Tuples(field, n)
