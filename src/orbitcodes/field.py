"""Exact arithmetic in GF(p^m) with an explicit irreducible modulus.

The characteristic is checked against the size limit first and only then
for primality, by numtheory.factorize, the library's one primality test:
trial division of a huge p would run for minutes.

Field elements are integer codes in [0, q) where q = p^m.  The base-p
digits of a code, least significant first, are the coefficients of the
element's polynomial representative modulo the field's modulus.  Code 0
is the additive identity and code 1 the multiplicative identity, for any
choice of modulus.

The modulus is chosen and validated by the polynomial layer (poly), which
is imported lazily because it is built on top of GF.  For small fields
(q <= 256) full addition, negation, multiplication and inverse tables are
built once at construction; multiplication and inverses come from the
log/antilog tables of the first primitive element in ascending code order,
so the build costs O(q) digit products rather than q^2.  Above the table
limit every operation falls back to digit arithmetic on the one digit
codec, digits and code, and inverses are a^(q-2).

Every field hands out one set of lookups, `lookups = (add, mul, neg,
inv)`, indexed as add[a][b], mul[a][b], neg[a] and inv[a]: the full
tables for small fields, and dicts filled on first use above the table
limit.  The methods add, neg, mul and inv read them too, and the hot
loops of poly and codes index them directly.  GF instances are otherwise
immutable; filling a lazy lookup twice stores the same value, so a field
may be shared across threads without synchronization.
"""

from __future__ import annotations

from typing import Sequence

from .numtheory import factorize, power

_PRIME_LIMIT = 1 << 20  # larger characteristics are out of scope
_TABLE_LIMIT = 256


class _Memo(dict):
    """A dict that fills a missing key with fn(key) on first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class GF:
    """The finite field GF(p^m) = F_p[x] / (modulus).

    When no modulus is supplied, the monic irreducible of degree m over F_p
    with the smallest base-p coefficient code is chosen, so the presentation
    is deterministic across runs; Ben-Or's test scans the codes upward to
    it.  Prime fields (m = 1) always use x.
    """

    __slots__ = ("p", "m", "q", "modulus", "lookups", "_hash")

    def __init__(self, p: int, m: int = 1, modulus: Sequence[int] | None = None):
        if isinstance(p, int) and p > _PRIME_LIMIT:
            raise ValueError(f"characteristic {p} too large for this library")
        if not isinstance(p, int) or p < 2 or factorize(p) != {p: 1}:
            raise ValueError(f"characteristic must be prime, got {p!r}")
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"extension degree must be a positive integer, got {m!r}")
        if m == 1:
            if modulus is not None:
                digits = [int(c) % p for c in modulus]
                while digits and digits[-1] == 0:
                    digits.pop()
                if digits != [0, 1]:
                    raise ValueError("a prime field is presented with modulus x")
            mod = (0, 1)
        else:
            from .poly import Poly, is_irreducible

            if modulus is None:
                base = GF(p)
                candidates = (Poly.from_code(base, m, c) for c in range(p**m))
                mod = next(f.coeffs for f in candidates if is_irreducible(f))
            else:
                mod = tuple(int(c) % p for c in modulus)
                if len(mod) != m + 1 or mod[-1] != 1:
                    raise ValueError(
                        f"modulus must be monic of degree {m}, got {list(modulus)!r}"
                    )
                if not is_irreducible(Poly(GF(p), mod)):
                    raise ValueError(f"modulus {list(modulus)!r} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = mod
        self._hash = hash((p, mod))
        if self.q <= _TABLE_LIMIT:
            self.lookups = self._build_tables()
        else:
            self.lookups = (
                _Memo(lambda a: _Memo(lambda b: self._add_direct(a, b))),
                _Memo(lambda a: _Memo(lambda b: self._mul_direct(a, b))),
                _Memo(self._neg_direct),
                _Memo(lambda a: pow(a, p - 2, p) if m == 1 else self.pow(a, self.q - 2)),
            )

    # -- representation helpers

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector of a code, length m, least significant first."""
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def code(self, digits: Sequence[int]) -> int:
        """Code of a digit vector, least significant first, each digit mod p."""
        c = 0
        for d in reversed(list(digits)):
            c = c * self.p + d % self.p
        return c

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element code of {self!r}")
        return a

    # -- arithmetic

    def _build_tables(self) -> tuple:
        """The (add, mul, neg, inv) tables."""
        q, p = self.q, self.p
        # in a + b the low digits add mod p and the high parts a // p, b // p
        # add by an earlier row
        split = [divmod(b, p) for b in range(q)]
        digit_add = [[(x + y) % p for y in range(p)] for x in range(p)]
        add = [list(range(q))]
        for a in range(1, q):
            high, low = add[a // p], digit_add[a % p]
            add.append([p * high[bh] + low[bl] for bh, bl in split])
        exp = self._antilog()
        log = [0] * q
        for k, a in enumerate(exp):
            log[a] = k
        exp2 = exp + exp  # log a + log b < 2 (q - 1) needs no reduction
        logs = log[1:]
        mul = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        inv = [0] + [exp[-la] for la in logs]
        return add, mul, [self._neg_direct(a) for a in range(q)], inv

    def _antilog(self) -> list[int]:
        """Powers g^0, ..., g^(q-2) of the first primitive element g."""
        for g in range(1, self.q):
            powers = [1]
            a = g
            while a != 1:
                powers.append(a)
                a = self._mul_direct(a, g)
            if len(powers) == self.q - 1:
                return powers
        raise AssertionError(f"no primitive element found in {self!r}")

    def _add_direct(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return self.code([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def _neg_direct(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return self.code([-x for x in self.digits(a)])

    def _mul_direct(self, a: int, b: int) -> int:
        """Product of the digit polynomials of a and b, reduced mod the modulus."""
        p, m = self.p, self.m
        if m == 1:
            return a * b % p
        prod = [0] * (2 * m - 1)
        digits_b = self.digits(b)
        for i, x in enumerate(self.digits(a)):
            if x:
                for j, y in enumerate(digits_b):
                    prod[i + j] += x * y
        mod = self.modulus
        # reduce from the top with x^m = -(mod[0] + mod[1] x + ... + mod[m-1] x^(m-1))
        for top in range(2 * m - 2, m - 1, -1):
            c = prod[top] % p
            if c:
                for i in range(m):
                    prod[top - m + i] -= c * mod[i]
        return self.code(prod[:m])

    def add(self, a: int, b: int) -> int:
        return self.lookups[0][a][b]

    def neg(self, a: int) -> int:
        return self.lookups[2][a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self.lookups[1][a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return self.lookups[3][a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        return power(a, e, self.mul, 1)

    # -- identity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF):
            return NotImplemented
        return self.p == other.p and self.modulus == other.modulus

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"
