"""Polynomials over GF(q): arithmetic, irreducibility, factorization, order.

A Poly holds its field and an ascending tuple of coefficient codes with no
trailing zeros; the empty tuple is the zero polynomial, whose degree is the
sentinel NEG_INF.  Values are immutable and all functions are pure.

The public constructor checks every coefficient; results the library
computes itself (sums, products, quotients, remainders, enumerated
candidates) go through the unchecked Poly._trusted.  Multiplication and
division run polykernel's _product and _divide on the field's lookups
(field.GF.lookups), one loop for every field size, and powers run
numtheory.power on those products.

Candidate polynomials are ordered by their base-q coefficient code
(constant term least significant), which fixes a single deterministic
order used everywhere a polynomial sequence is produced.  irreducibles()
enumerates by a product sieve: it marks the code of every product of a
lower-degree irreducible with a monic cofactor and keeps the unmarked
codes, and refuses a sieve over more than 2^22 codes.  is_irreducible()
runs Ben-Or's test, gcd(x^(q^k) - x, f) = 1 for k up to deg(f)/2, once
per polynomial: it is memoized.  factor() divides by the enumerated
irreducibles on polykernel's residues.
order() of an irreducible f strips prime factors from q^deg(f) - 1 with
x-power tests; a reducible f reads lcm ord(p) c(e) over its factors p^e,
which factor() has proved irreducible, so no Ben-Or test runs on them.
The order of an irreducible is memoized once, in _irreducible_order,
since matrix orders ask for the same few irreducibles many times.
x_power() gives the coefficients of x^e mod f, for the order check of
groups.divisors_order and the giant steps of codes._difference_profile.

Ben-Or's Frobenius steps, the x-power tests and the sieve's products run
in polykernel, on packed ints over GF(2) and on coefficient lists over
every other field; gcd and division share its one long division
(_divide).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .field import GF
from .numtheory import power
from .polykernel import _divide, _gcd, _kernel, _product

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
        return Poly._trusted(F, _product(a, b, F.lookups))

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
        one = Poly.one(self.field)
        if mod is None:
            return power(self, e, Poly.__mul__, one)
        return power(self % mod, e, lambda a, b: a * b % mod, one)

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


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    f._need_same_field(g)
    return Poly._trusted(f.field, _gcd(f.coeffs, g.coeffs, f.field.lookups))


_IRR_CACHE: dict[tuple[GF, int], tuple[Poly, ...]] = {}

# The most codes q^d one sieve may mark: GF(2) degree 22.  classify sieves
# every degree up to n, so it refuses q^n above this limit up front.
_SIEVE_LIMIT = 2**22


def irreducibles(field: GF, d: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree exactly d, by ascending coefficient code.

    A product sieve: every reducible monic f of degree d is g h for some
    irreducible g of degree k <= d/2 and a monic h of degree d - k, so
    marking the codes of all such products (the kernel's reducible_marks)
    leaves the irreducibles.  The sieve holds one mark per code, so it is
    refused with ValueError when q^d exceeds _SIEVE_LIMIT = 2^22 codes.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if field.q**d > _SIEVE_LIMIT:
        raise ValueError(
            f"the irreducibles of degree {d} over GF({field.q}) need a sieve of "
            f"q^d = {field.q**d} marks, above the limit of 2^22"
        )
    key = (field, d)
    got = _IRR_CACHE.get(key)
    if got is None:
        lower = [irreducibles(field, k) for k in range(1, d // 2 + 1)]
        marks = _kernel(field).reducible_marks(field, d, lower)
        got = tuple(Poly.from_code(field, d, c) for c in range(field.q**d) if not marks[c])
        _IRR_CACHE[key] = got
    return got


@lru_cache(maxsize=8192)
def is_irreducible(f: Poly) -> bool:
    """Ben-Or's test: a polynomial f of degree d >= 1 is irreducible iff
    gcd(x^(q^k) - x, f) = 1 for k = 1 .. d/2, since x^(q^k) - x is the
    product of the monic irreducibles of degree dividing k; see
    _Residues.ben_or.  Memoized: a code report asks it of each divisor in
    cli and in codes.orbit_profile."""
    if f.is_zero or f.degree < 1:
        raise ValueError(f"irreducibility is undefined for constant {f!r}")
    return _kernel(f.field)(f.monic()).ben_or()


def factor(f: Poly) -> tuple[tuple[Poly, int], ...]:
    """Complete factorization of a monic f into (irreducible, exponent) pairs.

    Trial division emits the pairs by (degree, code) of the irreducible:
    degrees ascend, irreducibles() lists each degree by code, and a leftover
    of degree < 2d with no factor of degree < d is irreducible and of higher
    degree than every factor found.  Their product reconstructs f exactly.
    Each trial is one exact division on the residue form of _kernel(field).
    """
    if f.is_zero or f.degree < 1:
        raise ValueError(f"cannot factor constant {f!r}")
    if not f.is_monic:
        raise ValueError(f"factor expects a monic polynomial, got {f!r}")
    kern, lookups = _kernel(f.field), f.field.lookups
    out = []
    rem, degree = kern.form(f), f.degree
    d = 1
    while degree >= 1:
        if d > degree // 2:
            out.append((Poly._trusted(f.field, kern.coeffs(rem, degree + 1)), 1))
            break
        for p in irreducibles(f.field, d):
            g, e = kern.form(p), 0
            while (quot := kern.exact_quotient(rem, g, lookups)) is not None:
                rem = quot
                e += 1
            if e:
                out.append((p, e))
                degree -= d * e
                if degree < 1:
                    break
        d += 1
    return tuple(out)


def order(f: Poly) -> int:
    """Least e >= 1 with x^e = 1 (mod f), for f of degree >= 1 with f(0) != 0.

    For irreducible f this is _irreducible_order, which holds the memo;
    otherwise it is read from the factorization of f by _factored_order.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError(f"order is undefined for constant {f!r}")
    if f.coeff(0) == 0:
        raise ValueError(f"order requires a nonzero constant term, got {f!r}")
    f = f.monic()
    return _irreducible_order(f) if is_irreducible(f) else _factored_order(factor(f))


def x_power(f: Poly, e: int) -> tuple[int, ...]:
    """The d coefficients of x^e mod a monic f of degree d >= 1, that of x^0
    first, by polykernel's x_power."""
    residues = _kernel(f.field)(f)
    return tuple(residues.coeffs(residues.x_power(e), residues.d))


def _char_power(field: GF, e: int) -> int:
    """The least power of the characteristic that is >= e."""
    c = 1
    while c < e:
        c *= field.p
    return c


def _factored_order(divisors) -> int:
    """lcm of ord(p^e) = ord(p) c(e), c = _char_power, over pairs (p, e) of
    monic irreducibles p != x (Lidl and Niederreiter, Finite Fields, Thm 3.8,
    3.9).  Each p is irreducible already, so its order is read from
    _irreducible_order with no Ben-Or test."""
    return math.lcm(*(_irreducible_order(p) * _char_power(p.field, e) for p, e in divisors))


@lru_cache(maxsize=8192)
def _irreducible_order(f: Poly) -> int:
    """Order of x modulo a monic irreducible f != x, unchecked and
    memoized: the one memo of an irreducible's order; see
    _Residues.order_of_x."""
    return _kernel(f.field)(f).order_of_x()
