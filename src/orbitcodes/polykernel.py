"""The kernels under the poly layer: arithmetic in F_q[x] on bare
coefficient sequences and ints, with no Poly built.

_divide is the one long division (Poly's division operators and gcd use
it), _gcd the monic Euclid on its remainders and _product the one
schoolbook product (Poly's and _Lists' product mod f), all on coefficient
lists over a field's lookups (field.GF.lookups).

Residues mod a monic f come in two forms, picked per field by _kernel:
_Bits over GF(2), where a residue is an int with bit i the coefficient of
x^i (the bit order of Poly.code), and _Lists, coefficient lists on the
field's lookups, for every other field.  Each gives x-powers, Frobenius
steps (for _Lists, numtheory.power with the product mod f) and the gcd
test of Ben-Or's irreducibility test, and the product
marks of poly.irreducibles' sieve; Ben-Or's test and the order of x are
written once, over either form, in _Residues.  _Lists runs on GF(2) input
too, as the tests' oracle for _Bits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .numtheory import factorize, power

if TYPE_CHECKING:
    from .field import GF
    from .poly import Poly


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


def _product(a, b, lookups) -> list[int]:
    """The coefficient list of a b, for nonempty coefficient sequences over
    a field with these lookups: the schoolbook product over the nonzero
    terms, a square (a is b) listing its terms once."""
    add, mul, _, _ = lookups
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, c) for j, c in enumerate(b) if c]
    for i, c in terms if a is b else [(i, c) for i, c in enumerate(a) if c]:
        row = mul[c]
        for j, cb in terms:
            out[i + j] = add[out[i + j]][row[cb]]
    return out


def _gcd(a, b, lookups) -> list[int]:
    """Monic gcd of two coefficient lists, the second without trailing
    zeros; [] for two zeros.  Euclid on _divide's remainders."""
    while b:
        a, b = b, _divide(a, b, lookups)[1]
    row = lookups[1][lookups[3][a[-1]]] if a else ()
    return [row[c] for c in a]


def _kernel(field: GF) -> type:
    """The kernel class for a field: _Bits over GF(2), _Lists otherwise.
    Both also run on GF(2) input, where _Lists is _Bits' oracle."""
    return _Bits if field.q == 2 else _Lists


class _Residues:
    """Arithmetic mod a monic f of degree d >= 1.  A subclass gives the
    residue form and x_power, frobenius (r -> r^q) and coprime_to_x_minus
    (whether gcd(r - x, f) = 1); the two tests below run on any of them."""

    def ben_or(self) -> bool:
        """Whether f is irreducible: one Frobenius step per k <= d/2 from
        r = x, stopping at the first nontrivial gcd(x^(q^k) - x, f)."""
        r = self.x_power(1)
        for _ in range(self.d // 2):
            r = self.frobenius(r)
            if not self.coprime_to_x_minus(r):
                return False
        return True

    def order_of_x(self) -> int:
        """The multiplicative order of x in F_q[x]/(f) for an irreducible
        f != x: prime factors r are stripped from m = q^d - 1 while
        x^(m/r) = 1, each power one x_power pass."""
        e = self.q**self.d - 1
        for prime in factorize(e):
            while e % prime == 0 and self.x_power(e // prime) == self.one:
                e //= prime
        return e


class _Lists(_Residues):
    """Residues as coefficient lists of length d over the field's lookups;
    f enters through its tail, x^d mod f as (i, c) over its nonzero terms
    (the negated coefficients of f below its leading 1).  No Poly is built.
    The sieve forms products on coefficient lists as well."""

    def __init__(self, f: Poly):
        F = f.field
        self.q = F.q
        self.d = len(f.coeffs) - 1
        self.modulus = f.coeffs
        self.lookups = F.lookups
        self.add, self.mul, neg, _ = F.lookups
        self.tail = [(i, neg[c]) for i, c in enumerate(f.coeffs[:-1]) if c]
        self.one = [1] + [0] * (self.d - 1)

    def mul_mod(self, a: list[int], b: list[int]) -> list[int]:
        """a b mod f: _product, then each term of degree >= d folded back
        through x^d = tail, top down."""
        add, mul, tail, d = self.add, self.mul, self.tail, self.d
        out = _product(a, b, self.lookups)
        for top in range(2 * d - 2, d - 1, -1):
            lead = out[top]
            if lead:
                row = mul[lead]
                for i, c in tail:
                    out[top - d + i] = add[out[top - d + i]][row[c]]
        del out[d:]
        return out

    def frobenius(self, r: list[int]) -> list[int]:
        """r^q mod f, by numtheory.power with mul_mod."""
        return power(r, self.q, self.mul_mod, self.one)

    def x_power(self, e: int) -> list[int]:
        """x^e mod f: one left-to-right square-and-shift pass over the bits
        of e, squaring with mul_mod, and at a set bit multiplying by x, a
        shift whose top term folds back through the tail."""
        add, mul, tail = self.add, self.mul, self.tail
        r = [1] + [0] * (self.d - 1)
        for bit in bin(e)[2:]:
            r = self.mul_mod(r, r)
            if bit == "1":
                lead = r.pop()
                r.insert(0, 0)
                if lead:
                    row = mul[lead]
                    for i, c in tail:
                        r[i] = add[r[i]][row[c]]
        return r

    def coprime_to_x_minus(self, r: list[int]) -> bool:
        diff = list(r)
        diff[1] = self.add[diff[1]][self.lookups[2][1]]
        while diff and diff[-1] == 0:
            diff.pop()
        return len(_gcd(self.modulus, diff, self.lookups)) == 1

    @staticmethod
    def reducible_marks(field: GF, d: int, lower) -> bytearray:
        """marks[c] = 1 for the code c of every reducible monic of degree d,
        its leading 1 left out: the products g h, g irreducible of degree
        k <= d/2 (the tuple lower[k - 1]) and h monic of degree d - k.  The
        cofactors h are stepped in the outer loop, their digits built on
        the fly, so nothing but one mark per code is held."""
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
                for g in lower[k - 1]
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
        return marks


# _SPREAD[b]: the byte b with a zero bit after each of its bits, its square in GF(2)[x]
_SPREAD = [int("0".join(format(b, "b")), 2) for b in range(256)]


class _Bits(_Residues):
    """GF(2) residues as ints, bit i the coefficient of x^i (the bit order
    of Poly.code): addition is XOR, a square spreads the bits through
    _SPREAD, and a reduction XORs f << (top - d) while the top bit is at
    or above d.  The sieve's products are XORs of shifted ints."""

    q = 2
    one = 1

    def __init__(self, f: Poly):
        self.d = len(f.coeffs) - 1
        self.f = f.code()

    def x_power(self, e: int, r: int = 1) -> int:
        """r^(2^b) x^e mod f for the b bits of e, left to right: square
        (and at a set bit shift), then reduce; x^e for the default r."""
        f, d = self.f, self.d
        for bit in bin(e)[2:]:
            s = i = 0
            while r:
                s |= _SPREAD[r & 255] << i
                r >>= 8
                i += 16
            r = s << 1 if bit == "1" else s
            while r >> d:
                r ^= f << (r.bit_length() - 1 - d)
        return r

    def frobenius(self, r: int) -> int:
        return self.x_power(0, r)  # bin(0) is one 0 bit: a square, no shift

    def coprime_to_x_minus(self, r: int) -> bool:
        """Euclid on ints, each remainder a run of XORed shifts."""
        a, b = self.f, r ^ 2
        while b:
            top = b.bit_length()
            while a.bit_length() >= top:
                a ^= b << (a.bit_length() - top)
            a, b = b, a
        return a == 1

    @staticmethod
    def reducible_marks(field: GF, d: int, lower) -> bytearray:
        """_Lists.reducible_marks on ints.  For one g, the product g h with
        h = x^(d-k) + c is linear in c: g x^(d-k) plus the XOR of g << j
        over the set bits j of c.  So c is split into its low 8 bits and
        its high bits, the products of g with each are listed once per g,
        and each mark costs one XOR of a high and a low product."""
        marks = bytearray(2**d)
        top = 1 << d
        for k in range(1, d // 2 + 1):
            low = min(d - k, 8)
            for g in lower[k - 1]:
                g = g.code()
                products = [0]  # products[c] = g c for c < 2^low
                for j in range(low):
                    products += [v ^ g << j for v in products]
                lead = g << (d - k) ^ top
                highs = [lead]
                for j in range(low, d - k):
                    highs += [v ^ g << j for v in highs]
                for base in highs:
                    for v in products:
                        marks[base ^ v] = 1
        return marks
