"""Dense exact matrices over GF(q).

Entries are element codes stored row-major in a flat tuple.  Mat values are
immutable and hashable; every operation returns a fresh matrix, and its
arithmetic indexes the field's lookups as Poly does.  Mat.__pow__ is
numtheory.power on Mat products, after one inverse for a negative
exponent.  rref and Mat.inverse run one Gauss-Jordan elimination,
_reduce; the inverse reduces [A | I] over A's columns and reads the
right half.  Block diagonals of
any shape come from one assembler, block_diag_basis (block_diag is its
square-block case), and generators in rational canonical form,
diag(companion(p_i^e_i)), from one builder, companion_diag, which builds
each block companion(p^e) once and keeps it.  The orbit
walk (codes), the group closure and matrix orders (groups), the
elementary divisors (rcf) and sampling's full-rank draws run on the
int-packed rows of rows.py, over every field, and build Mats only for
their inputs and results and, in the closure, for one inverse per strong
generator: ranks come from the forward elimination of packed rows, not
from rref.  Mat multiply, Mat.__pow__ and rref are the slow oracle they
are checked against, with rcf.evaluate_poly_at_matrix as verify's p(A).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import SingularMatrixError
from .field import GF
from .numtheory import power
from .poly import Poly


class Mat:
    __slots__ = ("field", "rows", "cols", "entries", "_hash")

    def __init__(self, field: GF, rows: int, cols: int, entries: Iterable[int]):
        entries = tuple(field.check(int(e)) for e in entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError(f"entry count {len(entries)} != {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._hash = hash((field, rows, cols, entries))

    # -- constructors

    @classmethod
    def _trusted(cls, field: GF, rows: int, cols: int, entries: tuple[int, ...]) -> "Mat":
        """A matrix from entries the library computed itself: a tuple of
        rows * cols valid element codes, taken without per-entry checks."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._hash = hash((field, rows, cols, entries))
        return m

    @classmethod
    def from_rows(cls, field: GF, rows: Sequence[Sequence[int]]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(field, r, c, [e for row in rows for e in row])

    @classmethod
    def identity(cls, field: GF, n: int) -> "Mat":
        if n < 0:
            raise ValueError(f"negative size {n}x{n}")
        entries = [0] * (n * n)
        entries[:: n + 1] = [1] * n
        return cls._trusted(field, n, n, tuple(entries))

    @classmethod
    def zeros(cls, field: GF, rows: int, cols: int) -> "Mat":
        if rows < 0 or cols < 0:
            raise ValueError(f"negative size {rows}x{cols}")
        return cls._trusted(field, rows, cols, (0,) * (rows * cols))

    # -- access

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _need_same_field(self, other: "Mat") -> None:
        if not isinstance(other, Mat):
            raise TypeError(f"expected Mat, got {type(other).__name__}")
        if self.field != other.field:
            raise ValueError(f"mixed fields {self.field!r} and {other.field!r}")

    # -- arithmetic

    def __add__(self, other: "Mat") -> "Mat":
        self._need_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        add = self.field.lookups[0]
        return Mat._trusted(
            self.field,
            self.rows,
            self.cols,
            tuple([add[a][b] for a, b in zip(self.entries, other.entries)]),
        )

    def __neg__(self) -> "Mat":
        neg = self.field.lookups[2]
        entries = tuple([neg[a] for a in self.entries])
        return Mat._trusted(self.field, self.rows, self.cols, entries)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __mul__(self, other: "Mat") -> "Mat":
        self._need_same_field(other)
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        F = self.field
        add, mul = F.lookups[:2]
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                acc = 0
                for t in range(k):
                    at = arow[t]
                    if at:
                        acc = add[acc][mul[at][b[t * m + j]]]
                out.append(acc)
        return Mat._trusted(F, n, m, tuple(out))

    def __pow__(self, e: int) -> "Mat":
        if not self.is_square:
            raise ValueError("matrix power needs a square matrix")
        if not isinstance(e, int):
            raise TypeError("matrix exponent must be an integer")
        base = self if e >= 0 else self.inverse()
        return power(base, abs(e), Mat.__mul__, Mat.identity(self.field, self.rows))

    def transpose(self) -> "Mat":
        r, c, e = self.rows, self.cols, self.entries
        return Mat._trusted(
            self.field, c, r, tuple(e[i * c + j] for j in range(c) for i in range(r))
        )

    def inverse(self) -> "Mat":
        """Gauss-Jordan inverse; raises SingularMatrixError when singular."""
        if not self.is_square:
            raise ValueError("only square matrices have inverses")
        n = self.rows
        aug = [list(self.row(i)) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
        if len(_reduce(aug, n, self.field.lookups)) < n:
            raise SingularMatrixError(f"matrix is singular:\n{self!r}")
        return Mat._trusted(self.field, n, n, tuple(e for row in aug for e in row[n:]))

    def is_identity(self) -> bool:
        return self.is_square and self == Mat.identity(self.field, self.rows)

    # -- identity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Mat({self.field!r}, {self.rows}x{self.cols}: {body})"


@dataclass(frozen=True)
class RrefResult:
    matrix: Mat
    pivots: tuple[int, ...]
    rank: int


def _reduce(rows: list[list[int]], cols: int, lookups: tuple) -> list[int]:
    """Gauss-Jordan in place: bring rows to reduced row echelon form over
    their first cols columns, with leading ones, and return the pivot
    columns.  The one elimination behind rref and Mat.inverse."""
    add, mul, neg, inv = lookups
    height = len(rows)
    pivots = []
    for col in range(cols):
        r = len(pivots)
        if r == height:
            break
        pivot = next((i for i in range(r, height) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv_p = inv[rows[r][col]]
        if inv_p != 1:
            scale = mul[inv_p]
            rows[r] = [scale[v] for v in rows[r]]
        for i in range(height):
            if i != r and rows[i][col]:
                scale = mul[neg[rows[i][col]]]
                rows[i] = [add[v][scale[w]] for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def rref(m: Mat) -> RrefResult:
    """Reduced row echelon form with leading ones and zeros above pivots."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = _reduce(rows, m.cols, m.field.lookups)
    flat = tuple(e for row in rows for e in row)
    return RrefResult(Mat._trusted(m.field, m.rows, m.cols, flat), tuple(pivots), len(pivots))


def rank(m: Mat) -> int:
    return rref(m).rank


def is_invertible(m: Mat) -> bool:
    return m.is_square and rank(m) == m.rows


def companion(f: Poly) -> Mat:
    """Companion matrix of a monic f: superdiagonal ones, negated
    coefficients of f along the last row."""
    if f.is_zero or f.degree < 1:
        raise ValueError(f"companion matrix needs degree >= 1, got {f!r}")
    if not f.is_monic:
        raise ValueError(f"companion matrix needs a monic polynomial, got {f!r}")
    neg = f.field.lookups[2]
    s = int(f.degree)
    entries = [0] * (s * s)
    for i in range(s - 1):
        entries[i * s + i + 1] = 1
    entries[(s - 1) * s :] = [neg[c] for c in f.coeffs[:-1]]
    return Mat._trusted(f.field, s, s, tuple(entries))


@lru_cache(maxsize=256)
def _companion_power(p: Poly, e: int) -> Mat:
    """companion(p^e), built once per (p, e): class representatives and
    code reports ask for the same few blocks many times."""
    return companion(p**e)


def companion_diag(divisors: Iterable[tuple[Poly, int]]) -> Mat:
    """diag(companion(p_1^e_1), ..., companion(p_t^e_t)) for (p, e) pairs,
    in the given order."""
    return block_diag([_companion_power(p, e) for p, e in divisors])


def block_diag_basis(blocks: Sequence[Mat]) -> Mat:
    """diag(B_1, ..., B_t) for blocks of any shape, zero rows included: the
    rows of B_i placed in block i's columns, below the rows of B_1 .. B_i-1."""
    rows = sum(b.rows for b in blocks)
    n = sum(b.cols for b in blocks)
    entries = [0] * (rows * n)
    top = left = 0
    for b in blocks:
        s = b.cols
        for i in range(b.rows):
            start = (top + i) * n + left
            entries[start : start + s] = b.row(i)
        top += b.rows
        left += s
    return Mat._trusted(blocks[0].field, rows, n, tuple(entries))


def block_diag(blocks: Sequence[Mat]) -> Mat:
    """Block-diagonal assembly of square blocks, in the given order."""
    if not blocks:
        raise ValueError("block_diag needs at least one block")
    F = blocks[0].field
    for b in blocks:
        if not b.is_square:
            raise ValueError(f"blocks must be square, got {b.rows}x{b.cols}")
        if b.field != F:
            raise ValueError("blocks must share a field")
    return block_diag_basis(blocks)
