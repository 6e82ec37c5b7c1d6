import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import GF, field, poly


def test_prime_field_modulus_is_x():
    f = GF(2)
    assert (f.p, f.m, f.q) == (2, 1, 2)
    assert f.modulus == (0, 1)


def test_default_modulus_gf4():
    # the only monic irreducible quadratic over F_2, by exhaustive sieve
    assert GF(2, 2).modulus == (1, 1, 1)


@pytest.mark.parametrize(
    "p,m,modulus",
    [(2, 3, (1, 1, 0, 1)), (2, 4, (1, 1, 0, 0, 1)), (3, 2, (1, 0, 1))],
)
def test_default_modulus_larger_fields(p, m, modulus):
    assert GF(p, m).modulus == modulus


@pytest.mark.parametrize(
    "p, m, modulus",
    [(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)), (3, 5, (1, 2, 0, 0, 0, 1))],
)
def test_default_modulus_scans_without_the_sieve(monkeypatch, p, m, modulus):
    # the least irreducible code, found by testing codes upward
    def forbidden(*args):
        raise AssertionError("the default modulus sieved every code")

    monkeypatch.setattr(poly, "irreducibles", forbidden)
    assert GF(p, m).modulus == modulus


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        GF(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2


def test_non_monic_modulus_rejected():
    with pytest.raises(ValueError, match="monic"):
        GF(3, 2, (1, 0, 2))


def test_non_prime_characteristic_rejected():
    for bad in (-3, 0, 1, 4, 6, 9):
        with pytest.raises(ValueError, match="^characteristic must be prime"):
            GF(bad)


@pytest.mark.parametrize("p", [1000000000000000003, 1 << 21])
def test_large_characteristic_is_refused_before_the_primality_test(monkeypatch, p):
    # trial division of 10^18 + 3 would run towards 10^9 divisors
    def forbidden(n):
        raise AssertionError(f"factorize({n}) ran above the limit")

    monkeypatch.setattr(field, "factorize", forbidden)
    with pytest.raises(ValueError, match=f"^characteristic {p} too large"):
        GF(p)


def test_bad_extension_degree_rejected():
    with pytest.raises(ValueError):
        GF(2, 0)


def test_prime_field_rejects_other_modulus():
    with pytest.raises(ValueError):
        GF(3, 1, (1, 1))
    assert GF(3, 1, (0, 1)).modulus == (0, 1)


def test_gf4_multiplication():
    f = GF(2, 2)
    assert f.mul(2, 2) == 3  # x * x = x + 1 mod x^2+x+1
    assert all(f.mul(a, 1) == a for a in range(4))


def test_gf3_inverse():
    assert GF(3).inv(2) == 2


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GF(2, 2).inv(0)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                                 (2, 2), (2, 3), (2, 4), (3, 2)])
def test_field_axioms_exhaustive(p, m):
    f = GF(p, m)
    q = f.q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_digit_round_trip():
    f = GF(3, 2)
    for a in range(f.q):
        assert f.code(f.digits(a)) == a


def test_untabled_field_agrees_with_direct_ops():
    big = GF(2, 9)  # q = 512 sits above the table limit
    mul = big.lookups[1]
    assert isinstance(mul, dict) and not mul  # no full table, rows filled on use
    for a, b in ((3, 7), (255, 2), (511, 511)):
        prod = big.mul(a, b)
        assert 0 <= prod < big.q
        if a:
            assert big.mul(a, big.inv(a)) == 1
    assert len(mul) < big.q


def test_field_equality_and_hash():
    assert GF(2, 2) == GF(2, 2)
    assert hash(GF(2, 2)) == hash(GF(2, 2))
    assert GF(2, 2) != GF(2)
    assert GF(2, 3) != GF(3)


def test_element_check():
    f = GF(2, 2)
    with pytest.raises(ValueError):
        f.check(4)
    with pytest.raises(ValueError):
        f.check(-1)


def test_pow():
    f = GF(2, 3)
    for a in range(1, f.q):
        assert f.pow(a, f.q - 1) == 1
        assert f.pow(a, -1) == f.inv(a)


# Fields whose multiplication tables come from log/antilog tables, including
# moduli whose root x is not primitive (x^2 + 1 over F_3, x^4 + ... + 1
# over F_2), and two untabled fields that multiply by digits.
ORACLE_FIELDS = [
    GF(2), GF(3), GF(5), GF(251), GF(2, 2), GF(2, 3), GF(3, 2), GF(2, 4),
    GF(2, 4, (1, 1, 1, 1, 1)), GF(5, 2), GF(3, 3), GF(7, 2), GF(2, 8), GF(3, 5),
    GF(2, 9), GF(5, 4),
]


def _digits(f, a):
    return [a // f.p**i % f.p for i in range(f.m)]


def _from_digits(f, digits):
    return sum(d % f.p * f.p**i for i, d in enumerate(digits))


def _digit_product(f, a, b):
    """a * b from base-p digit polynomials reduced mod the modulus, in
    plain integer arithmetic."""
    p, m = f.p, f.m
    da, db = _digits(f, a), _digits(f, b)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for top in range(2 * m - 2, m - 1, -1):
        c = prod[top] % p
        for i, mi in enumerate(f.modulus):
            prod[top - m + i] -= c * mi
    return _from_digits(f, prod[:m])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.data())
def test_mul_and_inv_match_digit_oracle(f, data):
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    assert f.mul(a, b) == _digit_product(f, a, b)
    if a:
        assert _digit_product(f, a, f.inv(a)) == 1


@pytest.mark.parametrize("f", ORACLE_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_add_and_neg_match_digit_oracle(f, data):
    # digit-wise sums and negations mod p, on every field: the tabled ones
    # and the untabled GF(2^9) and GF(5^4), which compute add and neg on use
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    assert f.add(a, b) == _from_digits(f, [x + y for x, y in zip(_digits(f, a), _digits(f, b))])
    assert f.neg(a) == _from_digits(f, [-x for x in _digits(f, a)])
    assert f.add(a, f.neg(a)) == 0
