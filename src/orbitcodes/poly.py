"""Polynomials over GF(q): arithmetic, irreducibility, factorization, order.

A Poly holds its field and an ascending tuple of coefficient codes with no
trailing zeros; the empty tuple is the zero polynomial, whose degree is the
sentinel NEG_INF.  Values are immutable and all functions are pure.

The public constructor checks every coefficient; results the library
computes itself (sums, products, quotients, remainders, enumerated
candidates) go through the unchecked Poly._trusted.  Multiplication and
division index the field's lookups (field.GF.lookups) directly, with one
loop for every field size.

Candidate polynomials are ordered by their base-q coefficient code
(constant term least significant), which fixes a single deterministic
order used everywhere a polynomial sequence is produced.  irreducibles()
enumerates by a product sieve: it marks the code of every product of a
lower-degree irreducible with a monic cofactor and keeps the unmarked
codes.  is_irreducible() runs Ben-Or's test, gcd(x^(q^k) - x, f) = 1 for
k up to deg(f)/2.  factor() divides by the enumerated irreducibles.
order() of an irreducible f strips prime factors from q^deg(f) - 1 with
x-power tests; a reducible f reads lcm ord(p) c(e) over its factors p^e.
It is memoized per polynomial, since matrix orders ask for the same few
irreducibles many times.  Ben-Or's Frobenius steps and the x-power tests
share one mul-mod kernel (_mul_mod) on coefficient lists, and gcd and
division share one long division (_divide).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .field import GF
from .numtheory import factorize

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: GF, coeffs=()):
        cs = [field.check(int(c)) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)
        self._hash = hash((field._hash, self.coeffs))

    @classmethod
    def _trusted(cls, field: GF, coeffs: list[int]) -> "Poly":
        """A polynomial from a list of valid element codes the library
        computed itself, taken without per-coefficient checks; trailing
        zeros are trimmed (the list is consumed)."""
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        f = object.__new__(cls)
        f.field = field
        f.coeffs = tuple(coeffs)
        f._hash = hash((field._hash, f.coeffs))
        return f

    # -- constructors

    @classmethod
    def zero(cls, field: GF) -> "Poly":
        return cls._trusted(field, [])

    @classmethod
    def one(cls, field: GF) -> "Poly":
        return cls._trusted(field, [1])

    @classmethod
    def x(cls, field: GF) -> "Poly":
        return cls._trusted(field, [0, 1])

    @classmethod
    def constant(cls, field: GF, c: int) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def from_code(cls, field: GF, degree: int, code: int) -> "Poly":
        """The monic degree-d polynomial whose low coefficients encode `code`."""
        digits = []
        for _ in range(degree):
            digits.append(code % field.q)
            code //= field.q
        digits.append(1)
        return cls._trusted(field, digits)

    # -- basic queries

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient code; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    def code(self) -> int:
        """Base-q integer encoding, constant term least significant."""
        c = 0
        for a in reversed(self.coeffs):
            c = c * self.field.q + a
        return c

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def evaluate(self, a: int) -> int:
        F = self.field
        out = 0
        for c in reversed(self.coeffs):
            out = F.add(F.mul(out, a), c)
        return out

    # -- ring operations

    def _need_same_field(self, other: "Poly") -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if self.field is not other.field and self.field != other.field:
            raise ValueError(f"mixed fields {self.field!r} and {other.field!r}")

    def __add__(self, other: "Poly") -> "Poly":
        self._need_same_field(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = F.lookups[0]
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return Poly._trusted(F, out)

    def __neg__(self) -> "Poly":
        neg = self.field.lookups[2]
        return Poly._trusted(self.field, [neg[c] for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._need_same_field(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        add, mul, _, _ = F.lookups
        terms = [(j, c) for j, c in enumerate(b) if c]
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                row = mul[ai]
                for j, c in terms:
                    out[i + j] = add[out[i + j]][row[c]]
        return Poly._trusted(F, out)

    def scale(self, c: int) -> "Poly":
        row = self.field.lookups[1][c]
        return Poly._trusted(self.field, [row[a] for a in self.coeffs])

    def _divide(self, other: "Poly") -> tuple[list[int], list[int]]:
        """Quotient and remainder coefficient lists of long division."""
        self._need_same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        return _divide(self.coeffs, other.coeffs, self.field.lookups)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        quot, rem = self._divide(other)
        return Poly._trusted(self.field, quot), Poly._trusted(self.field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return Poly._trusted(self.field, self._divide(other)[0])

    def __mod__(self, other: "Poly") -> "Poly":
        return Poly._trusted(self.field, self._divide(other)[1])

    def __pow__(self, e: int, mod: "Poly | None" = None) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {e!r}")
        out = Poly.one(self.field)
        base = self if mod is None else self % mod
        while e:
            if e & 1:
                out = out * base
                if mod is not None:
                    out %= mod
            e >>= 1
            if e:
                base = base * base
                if mod is not None:
                    base %= mod
        return out

    def monic(self) -> "Poly":
        if self.is_zero or self.lc == 1:
            return self
        return self.scale(self.field.inv(self.lc))

    # -- identity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            else:
                x = "x" if i == 1 else f"x^{i}"
                terms.append(x if c == 1 else f"{c}*{x}")
        return " + ".join(terms)


def _divide(a, b, lookups) -> tuple[list[int], list[int]]:
    """Quotient and remainder coefficient lists of a / b, for coefficient
    sequences over a field with these lookups and b with a nonzero leading
    coefficient; the remainder has no trailing zeros."""
    add, mul, neg, inv = lookups
    db = len(b) - 1
    to_quot = mul[inv[b[-1]]]
    # rem += c * (-b) over b's nonzero terms below its leading one
    tail = [(i, neg[c]) for i, c in enumerate(b[:db]) if c]
    rem = list(a)
    quot = [0] * max(0, len(rem) - db)
    for shift in range(len(quot) - 1, -1, -1):
        lead = rem[shift + db]
        if lead:
            c = quot[shift] = to_quot[lead]
            row = mul[c]
            for i, nb in tail:
                rem[shift + i] = add[rem[shift + i]][row[nb]]
    del rem[db:]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _gcd(a, b, lookups) -> list[int]:
    """Monic gcd of two coefficient lists, the second without trailing
    zeros; [] for two zeros.  Euclid on _divide's remainders."""
    while b:
        a, b = b, _divide(a, b, lookups)[1]
    row = lookups[1][lookups[3][a[-1]]] if a else ()
    return [row[c] for c in a]


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    f._need_same_field(g)
    return Poly._trusted(f.field, _gcd(f.coeffs, g.coeffs, f.field.lookups))


_IRR_CACHE: dict[tuple[GF, int], tuple[Poly, ...]] = {}


def irreducibles(field: GF, d: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree exactly d, by ascending coefficient code.

    A product sieve: every reducible monic f of degree d is g h for some
    irreducible g of degree k <= d/2 and a monic h of degree d - k, so
    marking the codes of all such products leaves the irreducibles.  The
    cofactors h are stepped in the outer loop, their digits built on the
    fly, so nothing but one mark per code of degree d is held.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    key = (field, d)
    got = _IRR_CACHE.get(key)
    if got is None:
        q = field.q
        add, mul, _, _ = field.lookups
        # a product's code is the sum of value[i][c] = c q^i over its digits
        value = [[c * q**i for c in range(q)] for i in range(d)]
        marks = bytearray(q**d)
        out = [0] * (d + 1)
        for k in range(1, d // 2 + 1):
            # g's nonzero terms below its leading 1, with their product rows
            gs = [
                [(i, mul[c]) for i, c in enumerate(g.coeffs[:k]) if c]
                for g in irreducibles(field, k)
            ]
            h = [0] * (d - k) + [1]
            for _ in range(q ** (d - k)):
                terms = [(j, c) for j, c in enumerate(h) if c]
                lead = [0] * k + h  # x^k h, the leading term of g times h
                for g in gs:
                    out[:] = lead
                    for i, row in g:
                        for j, c in terms:
                            out[i + j] = add[out[i + j]][row[c]]
                    marks[sum(map(list.__getitem__, value, out))] = 1
                for j in range(d - k):  # next h in code order
                    if h[j] < q - 1:
                        h[j] += 1
                        break
                    h[j] = 0
        got = tuple(Poly.from_code(field, d, c) for c in range(q**d) if not marks[c])
        _IRR_CACHE[key] = got
    return got


def is_irreducible(f: Poly) -> bool:
    """Ben-Or's test: a polynomial f of degree d >= 1 is irreducible iff
    gcd(x^(q^k) - x, f) = 1 for k = 1 .. d/2, since x^(q^k) - x is the
    product of the monic irreducibles of degree dividing k.  Each step
    raises the residue r = x^(q^(k-1)) mod f to the q-th power with
    _pow_mod and stops at the first nontrivial gcd."""
    d = f.degree
    if f.is_zero or d < 1:
        raise ValueError(f"irreducibility is undefined for constant {f!r}")
    f = f.monic()
    add, mul, neg, _ = f.field.lookups
    tail = _tail(f)
    r = [0, 1] + [0] * (int(d) - 2)  # x, reduced once d >= 2
    for _ in range(int(d) // 2):
        r = _pow_mod(r, f.field.q, tail, add, mul)
        diff = list(r)
        diff[1] = add[diff[1]][neg[1]]
        while diff and diff[-1] == 0:
            diff.pop()
        if len(_gcd(f.coeffs, diff, f.field.lookups)) != 1:
            return False
    return True


def factor(f: Poly) -> tuple[tuple[Poly, int], ...]:
    """Complete factorization of a monic f into (irreducible, exponent) pairs.

    Pairs come out sorted by (degree, coefficient code) of the irreducible;
    their product reconstructs f exactly.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError(f"cannot factor constant {f!r}")
    if not f.is_monic:
        raise ValueError(f"factor expects a monic polynomial, got {f!r}")
    out = []
    rem = f
    d = 1
    while rem.degree >= 1:
        if d > rem.degree // 2:
            out.append((rem, 1))
            break
        for p in irreducibles(f.field, d):
            e = 0
            while True:
                q, r = divmod(rem, p)
                if not r.is_zero:
                    break
                rem = q
                e += 1
            if e:
                out.append((p, e))
            if rem.degree < 1:
                break
        d += 1
    out.sort(key=lambda pe: (pe[0].degree, pe[0].code()))
    return tuple(out)


def _tail(f: Poly) -> list[tuple[int, int]]:
    """x^d mod a monic f of degree d, as (i, c) over its nonzero terms:
    the negated coefficients of f below its leading 1."""
    neg = f.field.lookups[2]
    return [(i, neg[c]) for i, c in enumerate(f.coeffs[:-1]) if c]


def _mul_mod(a: list[int], b: list[int], tail, add, mul) -> list[int]:
    """a b mod f on residue coefficient lists of length d = deg f, with
    f given by its _tail and the field by its add and mul lookups: the
    schoolbook product, then each term of degree >= d folded back
    through x^d = tail, top down.  No Poly is built."""
    d = len(a)
    out = [0] * (2 * d - 1)
    terms = [(j, c) for j, c in enumerate(b) if c]
    # a square reuses b's term list
    for i, c in terms if a is b else [(i, c) for i, c in enumerate(a) if c]:
        row = mul[c]
        for j, cb in terms:
            out[i + j] = add[out[i + j]][row[cb]]
    for top in range(2 * d - 2, d - 1, -1):
        lead = out[top]
        if lead:
            row = mul[lead]
            for i, c in tail:
                out[top - d + i] = add[out[top - d + i]][row[c]]
    del out[d:]
    return out


def _pow_mod(r: list[int], e: int, tail, add, mul) -> list[int]:
    """r^e mod f for e >= 1, left-to-right square-and-multiply with
    _mul_mod; r and the result are residue lists as there."""
    out = r
    for bit in bin(e)[3:]:
        out = _mul_mod(out, out, tail, add, mul)
        if bit == "1":
            out = _mul_mod(out, r, tail, add, mul)
    return out


def _x_power(f: Poly, e: int) -> list[int]:
    """Coefficients of x^e mod f (ascending, no trailing zeros) for a monic
    f of degree d >= 1.

    One left-to-right square-and-shift pass over the bits of e: square
    the residue with _mul_mod, and at a set bit multiply it by x, a shift
    whose top term folds back through x^d = _tail(f).
    """
    add, mul, _, _ = f.field.lookups
    tail = _tail(f)
    r = [1] + [0] * (len(f.coeffs) - 2)
    for bit in bin(e)[2:]:
        r = _mul_mod(r, r, tail, add, mul)
        if bit == "1":
            lead = r.pop()
            r.insert(0, 0)
            if lead:
                row = mul[lead]
                for i, c in tail:
                    r[i] = add[r[i]][row[c]]
    while r and r[-1] == 0:
        r.pop()
    return r


@lru_cache(maxsize=8192)
def order(f: Poly) -> int:
    """Least e >= 1 with x^e = 1 (mod f), for f of degree >= 1 with f(0) != 0.

    For irreducible f this is _irreducible_order; otherwise it is read
    from the factorization of f by _factored_order.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError(f"order is undefined for constant {f!r}")
    if f.coeff(0) == 0:
        raise ValueError(f"order requires a nonzero constant term, got {f!r}")
    f = f.monic()
    return _irreducible_order(f) if is_irreducible(f) else _factored_order(factor(f))


def _char_power(field: GF, e: int) -> int:
    """The least power of the characteristic that is >= e."""
    c = 1
    while c < e:
        c *= field.p
    return c


def _factored_order(divisors) -> int:
    """lcm of ord(p^e) = ord(p) c(e), c = _char_power, over pairs (p, e) of
    monic irreducibles p != x (Lidl and Niederreiter, Finite Fields, Thm 3.8, 3.9)."""
    return math.lcm(*(order(p) * _char_power(p.field, e) for p, e in divisors))


def _irreducible_order(f: Poly) -> int:
    """Order of x modulo a monic irreducible f != x, unchecked: the
    multiplicative order of x in the quotient field, found by stripping
    prime factors r from m = q^deg(f) - 1 while x^(m/r) = 1, each power
    one pass of _x_power."""
    e = f.field.q ** int(f.degree) - 1
    for prime in factorize(e):
        while e % prime == 0 and _x_power(f, e // prime) == [1]:
            e //= prime
    return e
