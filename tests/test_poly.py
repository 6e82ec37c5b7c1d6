import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import GF, NEG_INF, Poly, factor, gcd, irreducibles, is_irreducible, order
from orbitcodes import poly
from orbitcodes.polykernel import _Bits, _Lists, _kernel
from orbitcodes.verify import brute_force_poly_order

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def P2(*coeffs):
    return Poly(F2, coeffs)


def test_zero_polynomial_degree_sentinel():
    z = Poly.zero(F2)
    assert z.is_zero
    assert z.degree == NEG_INF
    assert z.degree < 0
    assert Poly(F2, [0, 0, 0]) == z


def test_trailing_zeros_stripped():
    assert Poly(F2, [1, 1, 0, 0]).coeffs == (1, 1)


def test_char_two_square():
    assert P2(1, 1) * P2(1, 1) == P2(1, 0, 1)  # (x+1)^2 = x^2+1


def test_gcd_example():
    assert gcd(P2(1, 0, 1), P2(1, 1)) == P2(1, 1)
    assert gcd(Poly.zero(F2), Poly.zero(F2)).is_zero


def euclid_gcd(f, g):
    """Euclid on Poly values: the oracle for gcd's coefficient-list loop."""
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def random_poly(rng, field, d):
    """A polynomial of degree d (zero for d < 0) with a random nonzero
    leading coefficient, so mostly non-monic over q > 2."""
    if d < 0:
        return Poly.zero(field)
    return Poly(field, [rng.randrange(field.q) for _ in range(d)] + [rng.randrange(1, field.q)])


def test_gcd_matches_poly_level_euclid():
    rng = random.Random(8)
    for field in (F2, F3, F4, GF(257)):
        for _ in range(150):
            common = random_poly(rng, field, rng.randint(0, 4))
            f = random_poly(rng, field, rng.randint(-1, 6)) * common
            g = random_poly(rng, field, rng.randint(-1, 6)) * common
            got = gcd(f, g)
            assert got == euclid_gcd(f, g) == euclid_gcd(g, f) == gcd(g, f)
            if f.is_zero and g.is_zero:
                assert got.is_zero
            else:
                assert got.is_monic
                assert (f % got).is_zero and (g % got).is_zero
        zero = Poly.zero(field)
        f = random_poly(rng, field, 5)
        assert gcd(f, zero) == gcd(zero, f) == f.monic()
        assert gcd(zero, zero).is_zero


def test_divmod_by_one():
    f = P2(1, 1, 0, 1)
    q, r = divmod(f, Poly.one(F2))
    assert q == f and r.is_zero


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divmod(P2(1, 1), Poly.zero(F2))


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        P2(1, 1) + Poly(F3, [1, 1])


def test_gcd_is_monic_over_f3():
    g = gcd(Poly(F3, [2, 2]), Poly(F3, [1, 0, 2, 1]).scale(2))
    assert g.is_zero or g.is_monic


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=0, max_size=7),
    st.lists(st.integers(0, 2), min_size=1, max_size=5),
)
def test_divmod_invariant(fc, gc):
    f = Poly(F3, fc)
    g = Poly(F3, gc)
    if g.is_zero:
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=0, max_size=6),
    st.lists(st.integers(0, 1), min_size=0, max_size=6),
)
def test_ring_commutativity(ac, bc):
    a = Poly(F2, ac)
    b = Poly(F2, bc)
    assert a + b == b + a
    assert a * b == b * a


def test_irreducible_examples():
    assert is_irreducible(P2(1, 1, 0, 1))
    assert not is_irreducible(P2(1, 0, 1))
    assert is_irreducible(Poly.x(F2))
    for f in (Poly.one(F2), Poly.zero(F2), Poly.constant(F3, 2)):
        with pytest.raises(ValueError):
            is_irreducible(f)


def test_enumerate_degree_one():
    assert [f.coeffs for f in irreducibles(F2, 1)] == [(0, 1), (1, 1)]


def test_enumerate_degree_three():
    assert [f.coeffs for f in irreducibles(F2, 3)] == [(1, 1, 0, 1), (1, 0, 1, 1)]


def test_enumerate_degree_four_count():
    # necklace count (2^4 - 2^2) / 4
    assert len(irreducibles(F2, 4)) == 3


def test_enumerate_over_extension_field():
    assert len(irreducibles(F4, 2)) == (16 - 4) // 2


# -- trial division, the oracle for the product sieve and Ben-Or's test

_TRIAL: dict = {}


def trial_irreducibles(field, d):
    """Monic irreducibles of degree d by ascending code: the candidates
    that no irreducible of degree <= d/2 divides, the lower degrees found
    by this same oracle."""
    key = (field, d)
    if key not in _TRIAL:
        lower = [g for k in range(1, d // 2 + 1) for g in trial_irreducibles(field, k)]
        candidates = (Poly.from_code(field, d, c) for c in range(field.q**d))
        _TRIAL[key] = tuple(f for f in candidates if all((f % g).coeffs for g in lower))
    return _TRIAL[key]


def trial_is_irreducible(f):
    return all(
        (f % g).coeffs for k in range(1, f.degree // 2 + 1) for g in trial_irreducibles(f.field, k)
    )


def test_ben_or_matches_trial_division():
    # every polynomial, monic or not and with f(0) = 0 or not
    for field, top in ((F2, 10), (F3, 6), (F4, 5)):
        for d in range(1, top + 1):
            for *low, lc in itertools.product(range(field.q), repeat=d + 1):
                if lc:
                    f = Poly(field, low + [lc])
                    assert is_irreducible(f) == trial_is_irreducible(f), f


# every (field, d) with q^d <= 4096 that verify enumerates, and GF(8) with
# the non-default modulus x^3 + x^2 + 1
SIEVE_FIELDS = [F2, F3, F4, GF(5), GF(2, 3), GF(3, 2), GF(2, 4)]
SIEVE_FIELDS += [pytest.param(GF(2, 3, modulus=(1, 0, 1, 1)), id="GF(2^3) mod x^3+x^2+1")]


@pytest.mark.parametrize("field", SIEVE_FIELDS, ids=repr)
def test_sieve_matches_trial_division(field):
    d = 1
    while field.q**d <= 4096:
        assert irreducibles(field, d) == trial_irreducibles(field, d)
        d += 1


def test_irreducibility_known_answers_at_high_degree():
    assert is_irreducible(P2(*([1, 0, 0, 1] + [0] * 24 + [1])))  # x^28 + x^3 + 1
    assert is_irreducible(P2(*([1, 0, 0, 1] + [0] * 27 + [1])))  # x^31 + x^3 + 1
    g, h = irreducibles(F2, 12)[:2]
    assert not is_irreducible(g * h)
    assert not is_irreducible(g * g)


def test_sieve_streams_its_cofactors(monkeypatch):
    """A deterministic memory guard, not a timing gate: the degree-16 sieve
    holds its marks and its output, never a list of all the cofactors."""
    for k in range(1, 9):
        irreducibles(F2, k)
    monkeypatch.delitem(poly._IRR_CACHE, (F2, 16), raising=False)
    tracemalloc.start()
    try:
        got = irreducibles(F2, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == (2**16 - 2**8) // 16  # the necklace count
    assert peak < 2 * 10**6


def test_sieve_above_the_limit_is_refused_before_marking(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a sieve started")

    for kernel in (_Bits, _Lists):
        monkeypatch.setattr(kernel, "reducible_marks", staticmethod(forbidden))
    # no smaller than the GF(2) degree-22 sieve classify's default budget admits
    assert poly._SIEVE_LIMIT >= 2**22
    for field, d in ((F2, 23), (GF(2, 2), 12), (GF(3), 14), (GF(1048573), 2)):
        with pytest.raises(ValueError, match="above the limit of 2\\^22"):
            irreducibles(field, d)


def test_factor_examples():
    assert factor(P2(1, 0, 1)) == ((P2(1, 1), 2),)
    assert factor(P2(1, 1, 0, 1)) == ((P2(1, 1, 0, 1), 1),)
    x_plus_1 = Poly(F3, [1, 1])
    x_plus_2 = Poly(F3, [2, 1])
    assert factor(Poly(F3, [2, 0, 1])) == ((x_plus_1, 1), (x_plus_2, 1))


def test_factor_requires_monic_nonconstant():
    with pytest.raises(ValueError):
        factor(Poly(F3, [1, 2]))
    with pytest.raises(ValueError):
        factor(Poly.one(F2))


def test_factor_recomposition_random():
    rng = random.Random(11)
    for _ in range(200):
        field = rng.choice((F2, F3))
        f = Poly.from_code(field, rng.randint(1, 8), rng.randrange(field.q**4))
        prod = Poly.one(field)
        for p, e in factor(f):
            assert is_irreducible(p)
            prod = prod * p**e
        assert prod == f


def test_order_examples():
    assert order(P2(1, 1)) == 1
    assert order(P2(1, 1, 0, 1)) == 7
    assert order(P2(1, 0, 1)) == 2  # (x+1)^2
    assert order(P2(1, 0, 1, 1)) == 7


# every irreducible p != x up to degree 10 / 6 / 5 over GF(2) / GF(3) / GF(4)
ORDER_CASES = [
    p
    for field, top in ((F2, 10), (F3, 6), (F4, 5))
    for d in range(1, top + 1)
    for p in irreducibles(field, d)
    if p.coeff(0)
]


def sparse(field, terms):
    """The polynomial with coefficient c at x^i for each i: c in terms."""
    return Poly(field, [terms.get(i, 0) for i in range(max(terms) + 1)])


# x^13 + x^4 + x^3 + x + 1 and x^14 + x^10 + x^6 + x + 1, irreducible over GF(2)
P13 = sparse(F2, {13: 1, 4: 1, 3: 1, 1: 1, 0: 1})
P14 = sparse(F2, {14: 1, 10: 1, 6: 1, 1: 1, 0: 1})
P4 = Poly(F4, [2, 1, 1])  # x^2 + x + 2, irreducible of order 15 over GF(4)

# (f, order of x mod f): reducible with repeated factors, the last not monic
REPEATED_FACTORS = [
    (Poly(F3, [1, 0, 1]) ** 4 * Poly(F3, [2, 1]) ** 2, 36),  # (x^2+1)^4 (x+2)^2
    (P2(1, 1, 1) ** 3 * P13, 98292),  # (x^2+x+1)^3 P13
    (P4**2 * Poly(F4, [2, 1]) ** 3 * Poly(F4, [1, 1]), 60),  # P4^2 (x+2)^3 (x+1)
    ((Poly(F3, [1, 0, 1]) ** 2 * Poly(F3, [1, 1])).scale(2), 12),  # 2 (x^2+1)^2 (x+1)
]


def test_order_matches_incremental_oracle():
    extra = [P2(1, 1, 1, 1, 1), P2(1, 0, 0, 1), Poly(F3, [1, 0, 1, 1])]
    for f in ORDER_CASES + extra + [f for f, _ in REPEATED_FACTORS]:
        assert order(f) == brute_force_poly_order(f)


def test_reducible_order_known_answers():
    for f, known in REPEATED_FACTORS:
        assert order(f) == known
    # lcm(2^13 - 1, 2^14 - 1); stepping x would take about 1.3e8 steps
    assert is_irreducible(P13) and is_irreducible(P14)
    assert order(P13 * P14) == 134193153


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((F2, F3, F4, GF(257))),
    st.integers(1, 9),
    st.integers(0, 10**9),
    st.randoms(use_true_random=False),
)
def test_x_power_matches_pow(field, d, e, rng):
    f = Poly(field, [rng.randrange(field.q) for _ in range(d)] + [1])
    for kern in {_kernel(field)(f), _Lists(f)}:
        assert coeffs(kern.x_power(e)) == pow(Poly.x(field), e, f).coeffs


# -- the GF(2) int kernel against the list kernel on the same GF(2) input,
# at degrees beyond the exhaustive ranges above


def coeffs(r):
    """A residue's coefficients, ascending with no trailing zeros: the bits
    of an int (_Bits), or a coefficient list (_Lists) trimmed."""
    if isinstance(r, int):
        return tuple(r >> i & 1 for i in range(r.bit_length()))
    return _trim(r)


def gf2_poly(d, low):
    """The monic degree-d polynomial over GF(2) whose low coefficients are
    the bits of low."""
    return Poly.from_code(F2, d, low % 2**d)


def first_gf2_irreducible(d, low):
    """The first irreducible of degree d at or above the code of
    gf2_poly(d, low), by the int kernel's Ben-Or, wrapping around."""
    while not _Bits(f := gf2_poly(d, low)).ben_or():
        low += 1
    return f


def test_kernel_choice():
    assert _kernel(F2) is _Bits
    assert all(_kernel(field) is _Lists for field in (F3, F4, GF(257)))


@settings(max_examples=150, deadline=None)
@given(st.integers(11, 32), st.integers(0, 2**32), st.integers(0, 2**64))
def test_bits_x_power_matches_lists(d, low, e):
    f = gf2_poly(d, low)
    bits, lists = _Bits(f), _Lists(f)
    r = bits.x_power(e)
    assert coeffs(r) == coeffs(lists.x_power(e))
    square = lists.frobenius(list(coeffs(r)) + [0] * (d - r.bit_length()))
    assert coeffs(bits.frobenius(r)) == coeffs(square)


@settings(max_examples=100, deadline=None)
@given(st.integers(11, 32), st.integers(0, 2**32), st.integers(1, 2**16))
def test_bits_ben_or_matches_lists(d, low, other):
    f = gf2_poly(d, low)
    assert _Bits(f).ben_or() == _Lists(f).ben_or()
    # a product of two irreducibles of degree >= 5, so that no early gcd
    # step ends the test
    k = 5 + other % (d - 9)
    g = first_gf2_irreducible(k, other) * first_gf2_irreducible(d - k, low)
    assert not _Bits(g).ben_or() and not _Lists(g).ben_or()


@settings(max_examples=40, deadline=None)
@given(st.integers(11, 32), st.integers(1, 2**32))
def test_bits_irreducible_order_matches_lists(d, low):
    f = first_gf2_irreducible(d, low | 1)
    assert _Lists(f).ben_or()
    o = _Bits(f).order_of_x()
    assert o == _Lists(f).order_of_x()
    assert (2**d - 1) % o == 0
    assert _Bits(f).x_power(o) == 1


def test_bits_sieve_matches_lists():
    for d in range(1, 14):
        lower = [irreducibles(F2, k) for k in range(1, d // 2 + 1)]
        assert _Bits.reducible_marks(F2, d, lower) == _Lists.reducible_marks(F2, d, lower)


def test_order_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        order(P2(0, 1, 1))
    with pytest.raises(ValueError):
        order(Poly.one(F2))


def test_pow_with_modulus():
    f = P2(1, 1, 0, 1)
    assert pow(Poly.x(F2), 7, f) == Poly.one(F2)
    assert pow(Poly.x(F2), 6, f) != Poly.one(F2)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((F2, F3, F4, GF(257))),
    st.integers(0, 12),
    st.randoms(use_true_random=False),
)
def test_pow_and_frobenius_match_repeated_multiplication(field, e, rng):
    """Poly.__pow__ with and without a modulus against e products one at a
    time, and _Lists.frobenius (r -> r^q mod f) against q of them."""
    f = Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(0, 5))])
    mod = Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(1, 5))] + [1])
    want = Poly.one(field)
    for _ in range(e):
        want = want * f
    assert f**e == want
    assert pow(f, e, mod) == want % mod
    lists = _Lists(mod)
    r = list((f % mod).coeffs)
    r += [0] * (lists.d - len(r))
    want = lists.one
    for _ in range(field.q):
        want = lists.mul_mod(want, r)
    assert lists.frobenius(r) == want


def test_evaluate():
    f = Poly(F3, [1, 2, 1])  # 1 + 2x + x^2
    assert f.evaluate(0) == 1
    assert f.evaluate(1) == (1 + 2 + 1) % 3
    assert f.evaluate(2) == (1 + 4 + 4) % 3


def test_poly_hash_and_code():
    assert hash(P2(1, 1)) == hash(P2(1, 1))
    assert P2(1, 1, 0, 1).code() == 0b1011
    assert Poly.from_code(F2, 3, 0b011).coeffs == (1, 1, 0, 1)


# -- the table-driven kernels against a schoolbook oracle over F.add/F.mul

KERNEL_FIELDS = (F2, F3, F4, GF(257), GF(2, 9))  # the last two are untabled


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _school_add(F, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim(F.add(x, y) for x, y in zip(a, b))


def _school_mul(F, a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _trim(out)


def _school_divmod(F, a, b):
    rem, quot = list(a), [0] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        c = F.mul(rem[-1], F.inv(b[-1]))
        shift = len(rem) - len(b)
        quot[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] = F.add(rem[shift + i], F.neg(F.mul(c, y)))
        rem = list(_trim(rem))
    return _trim(quot), tuple(rem)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_kernels_match_schoolbook_oracle(field, data):
    coeffs = st.lists(st.integers(0, field.q - 1), max_size=8).map(_trim)
    a, b = data.draw(coeffs), data.draw(coeffs)
    f, g = Poly(field, a), Poly(field, b)
    assert (f + g).coeffs == _school_add(field, a, b)
    assert (f * g).coeffs == _school_mul(field, a, b)
    assert (-f).coeffs == tuple(field.neg(c) for c in a)
    if not b:
        return
    q, r = divmod(f, g)
    assert (q.coeffs, r.coeffs) == _school_divmod(field, a, b)
    assert _school_add(field, _school_mul(field, q.coeffs, b), r.coeffs) == a
    assert r.is_zero or r.degree < g.degree


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((F2, F3)),
    st.lists(st.integers(0, 2), min_size=1, max_size=6),
    st.integers(1, 2),
)
def test_order_cache_hit_agrees_with_miss(field, coeffs, c):
    cs = [1 + coeffs[0] % (field.q - 1)] + [x % field.q for x in coeffs[1:]] + [1]
    first = order(Poly(field, cs))
    assert order(Poly(field, list(cs))) == first  # an equal, fresh copy: a hit
    assert order.__wrapped__(Poly(field, cs)) == first  # no cache at all
    assert order(Poly(field, cs).scale(c % field.q or 1)) == first
