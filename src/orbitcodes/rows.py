"""Packed rows: the kernel under the orbit walk and the group closure.

A row vector of F_q^n is packed so that it hashes cheaply and its image
under a matrix is quick to form.  Over GF(2) it is an int with column j
at bit n-1-j, and its image under A is the XOR of A's rows at its set
bits; over larger fields it is a tuple of element codes reduced with the
field's lookups.  imager(A) hands out a memo indexed as image[v] = v A,
filled on first use, so each distinct row is mapped once and no q^n table
is built: one path serves every field size.  For a companion matrix A,
stepper(A) maps v to v A without a memo: a shift by one column plus the
last entry of v times A's last row (over GF(2) a shift and an XOR).

codes._walk reduces packed rows to canonical echelon keys to walk the
orbit of a subspace; codes._difference_profile steps the nonzero vectors
of a subspace (span) around the cycles of multiplication by x;
groups.closure keys each group element by the tuple of its packed rows
and multiplies by a generator row by row.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from .field import GF, _Memo
from .matrix import Mat


class _Bits:
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

    def imager(self, a: Mat) -> _Memo:
        """image[v] = v A: the XOR of A's rows at the set bits of v."""
        n = self.n
        rows = [self.pack(a.row(n - 1 - i)) for i in range(n)]  # bit i's image

        def image(v: int) -> int:
            w = 0
            for i, g in enumerate(rows):
                if v >> i & 1:
                    w ^= g
            return w

        return _Memo(image)

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


class _Tuples:
    """Rows over GF(q), q > 2, as tuples of element codes reduced with the
    field's lookups.  A reduced echelon basis also lists its rows in
    decreasing order, since an earlier pivot is a larger leading entry."""

    def __init__(self, field: GF, n: int):
        self.n, self.q = n, field.q
        self.add, self.mul, self.neg, self.inv = field.lookups

    pack = staticmethod(tuple)

    @staticmethod
    def unpack(key: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        return tuple(chain.from_iterable(key))

    def axpy(self, r: tuple[int, ...], x: int, b: tuple[int, ...]) -> tuple[int, ...]:
        """The row r + x b."""
        add, m = self.add, self.mul[x]
        return tuple([add[s][m[t]] for s, t in zip(r, b)])

    def imager(self, a: Mat) -> _Memo:
        """image[v] = v A."""
        axpy = self.axpy
        rows = [a.row(i) for i in range(self.n)]
        zero = (0,) * self.n

        def image(v: tuple[int, ...]) -> tuple[int, ...]:
            w = zero
            for x, g in zip(v, rows):
                if x:
                    w = axpy(w, x, g)
            return w

        return _Memo(image)

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
        vecs = [(0,) * self.n]
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
