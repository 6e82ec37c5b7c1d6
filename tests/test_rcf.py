import importlib
import itertools
import random
import sys

import pytest

from orbitcodes import (
    GF,
    Mat,
    Poly,
    SingularMatrixError,
    block_diag,
    char_poly,
    class_representatives,
    companion,
    elementary_divisors,
    factor,
    invariant_factors,
    irreducibles,
    is_invertible,
    matrix_order,
    min_poly,
    rcf,
    rcf_from_divisors,
    signature,
)
from orbitcodes import matrix
from orbitcodes.matrix import companion_diag, rank
from orbitcodes.rcf import divisor_key, evaluate_poly_at_matrix

rcf_module = importlib.import_module("orbitcodes.rcf")

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)
F9 = GF(3, 2)


def rand_invertible(rng, field, n):
    while True:
        m = Mat(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
        if is_invertible(m):
            return m


def test_invariant_factors_scalar():
    x_plus_1 = Poly(F2, [1, 1])
    assert invariant_factors(Mat.identity(F2, 2)) == (x_plus_1, x_plus_1)


def test_invariant_factors_companion_is_cyclic():
    f = Poly(F2, [1, 1, 0, 1])
    assert invariant_factors(companion(f)) == (f,)


def test_invariant_factors_divisibility_chain():
    d = block_diag([companion(Poly(F2, [1, 1])), companion(Poly(F2, [1, 0, 1]))])
    assert invariant_factors(d) == (Poly(F2, [1, 1]), Poly(F2, [1, 0, 1]))


def test_char_and_min_of_identity():
    assert char_poly(Mat.identity(F2, 2)) == Poly(F2, [1, 0, 1])  # (x+1)^2
    assert min_poly(Mat.identity(F2, 2)) == Poly(F2, [1, 1])


def test_char_equals_min_for_companion():
    f = Poly(F3, [2, 1, 0, 1])
    c = companion(f)
    assert char_poly(c) == f.monic()
    assert min_poly(c) == f.monic()


def test_char_poly_of_cubic_generator():
    a = Mat.from_rows(F2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    f = Poly(F2, [1, 1, 0, 1])
    assert char_poly(a) == f
    assert min_poly(a) == f


def test_rcf_companion_already_canonical():
    f = Poly(F2, [1, 1, 0, 1])
    divisors = rcf(companion(f))
    assert divisors == ((f, 1),)
    assert companion_diag(divisors) == companion(f)


def test_rcf_identity_two_by_two():
    divisors = rcf(Mat.identity(F2, 2))
    assert divisors == ((Poly(F2, [1, 1]), 1), (Poly(F2, [1, 1]), 1))


def test_rcf_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_invertible(rng, F2, 4)
        divisors = rcf(a)
        assert rcf(companion_diag(divisors)) == divisors


def test_rcf_rejects_singular():
    with pytest.raises(SingularMatrixError):
        rcf(Mat.zeros(F2, 2, 2))
    with pytest.raises(SingularMatrixError):
        rcf(Mat.from_rows(F2, [[1, 1], [1, 1]]))


def test_elementary_divisors_of_singular_matrix_contain_x():
    divisors = elementary_divisors(Mat.zeros(F2, 2, 2))
    assert all(p == Poly.x(F2) for p, _ in divisors)


def test_conjugacy_reflexive():
    a = companion(Poly(F2, [1, 1, 0, 1]))
    assert rcf(a) == rcf(a) == ((Poly(F2, [1, 1, 0, 1]), 1),)


def test_conjugate_pair_over_gf4():
    b1 = Mat.from_rows(F4, [[0, 1, 0], [0, 0, 1], [1, 0, 1]])
    b2 = Mat.from_rows(F4, [[3, 1, 2], [2, 2, 3], [0, 1, 0]])
    # both have the single elementary divisor x^3 + x^2 + 1
    assert rcf(b1) == ((Poly(F4, [1, 0, 1, 1]), 1),)
    assert rcf(b2) == rcf(b1)


def test_distinct_characteristic_polynomials_not_conjugate():
    assert rcf(Mat.identity(F2, 2)) != rcf(companion(Poly(F2, [1, 1, 1])))


def test_conjugation_invariance_random():
    rng = random.Random(20)
    for _ in range(30):
        field = rng.choice((F2, F3))
        n = rng.randint(1, 5)
        a = rand_invertible(rng, field, n)
        l = rand_invertible(rng, field, n)
        assert rcf(a) == rcf(l.inverse() * a * l)


def test_cayley_hamilton_random():
    rng = random.Random(21)
    for _ in range(20):
        field = rng.choice((F2, F3))
        n = rng.randint(1, 4)
        a = Mat(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
        assert evaluate_poly_at_matrix(char_poly(a), a) == Mat.zeros(field, n, n)


def test_divisor_product_and_lcm():
    rng = random.Random(22)
    for _ in range(20):
        a = rand_invertible(rng, F2, rng.randint(1, 5))
        divisors = rcf(a)
        prod = Poly.one(F2)
        for p, e in divisors:
            prod = prod * p**e
        assert prod == char_poly(a)
        largest = {}
        for p, e in divisors:
            largest[p] = max(largest.get(p, 0), e)
        lcm = Poly.one(F2)
        for p, e in largest.items():
            lcm = lcm * p**e
        mu = min_poly(a)
        assert lcm == mu
        # mu annihilates A, and no proper divisor mu / p does
        zero = Mat.zeros(F2, a.rows, a.rows)
        assert evaluate_poly_at_matrix(mu, a) == zero
        assert all(evaluate_poly_at_matrix(mu // p, a) != zero for p, _ in factor(mu))


def _horner_oracle(f, a):
    """f(A) from checked Mat sums and products only."""
    n, mul = a.rows, a.field.mul
    out = Mat.zeros(a.field, n, n)
    for c in reversed(f.coeffs):
        out = out * a + Mat(a.field, n, n, [mul(c, v) for v in Mat.identity(a.field, n).entries])
    return out


@pytest.mark.parametrize("field", [F2, F3, F4], ids=["GF(2)", "GF(3)", "GF(4)"])
def test_evaluate_poly_at_matrix_matches_mat_horner(field):
    rng = random.Random(24)
    q = field.q
    for _ in range(40):
        n = rng.randint(0, 4)
        a = Mat(field, n, n, [rng.randrange(q) for _ in range(n * n)])
        random_f = Poly(field, [rng.randrange(q) for _ in range(rng.randint(2, 7))])
        # leading coefficient q - 1: non-monic except over GF(2)
        non_monic = Poly(field, [rng.randrange(q) for _ in range(3)] + [q - 1])
        for f in (Poly.zero(field), Poly(field, [rng.randrange(1, q)]), non_monic, random_f):
            assert evaluate_poly_at_matrix(f, a) == _horner_oracle(f, a), (f, a)
    a = Mat(field, 3, 3, [rng.randrange(q) for _ in range(9)])
    assert evaluate_poly_at_matrix(Poly.zero(field), a) == Mat.zeros(field, 3, 3)
    assert evaluate_poly_at_matrix(Poly.one(field), a) == Mat.identity(field, 3)


def test_evaluate_poly_at_matrix_counts_products(monkeypatch):
    # a monic f of degree d >= 1 takes d - 1 products, a constant none
    calls = []
    mat_mul = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda a, b: calls.append(1) or mat_mul(a, b))
    a = companion(Poly(F3, [1, 2, 0, 1]))
    for coeffs in ([2], [1, 1], [2, 0, 1], [1, 1, 0, 2, 1], [0, 0, 0, 0, 0, 0, 1]):
        calls.clear()
        evaluate_poly_at_matrix(Poly(F3, coeffs), a)
        assert len(calls) == max(len(coeffs) - 2, 0), coeffs


def test_evaluate_poly_at_matrix_rejects_mismatches():
    with pytest.raises(ValueError):
        evaluate_poly_at_matrix(Poly.x(F2), Mat.zeros(F2, 2, 3))
    with pytest.raises(ValueError):
        evaluate_poly_at_matrix(Poly.x(F3), Mat.identity(F2, 2))


def test_canonical_divisor_order():
    # same irreducible: exponents descend; distinct: degree then coefficient code
    p = Poly(F2, [1, 1])
    q = Poly(F2, [1, 1, 1])
    divisors = rcf_from_divisors([(q, 1), (p, 1), (p, 2)])
    assert divisors == ((p, 2), (p, 1), (q, 1))
    assert companion_diag(divisors).rows == 5
    assert companion_diag(divisors) == block_diag(
        [companion(p**2), companion(p), companion(q)]
    )


def test_divisors_are_read_not_rebuilt(monkeypatch):
    # rcf and its readers take elementary_divisors' canonical tuple as it
    # is: no divisor list is sorted again and no canonical matrix is built
    rng = random.Random(29)
    pairs = []
    for field in (F2, F3, F4):
        for n in range(1, 5):
            a, l = rand_invertible(rng, field, n), rand_invertible(rng, field, n)
            pairs += [(a, l.inverse() * a * l), (a, rand_invertible(rng, field, n))]
    cells = [(F2, 4), (F3, 3), (F4, 2)]

    def values():
        return (
            [(rcf(a), rcf(a) == rcf(b), signature(a), matrix_order(a)) for a, b in pairs],
            [class_representatives(field, n) for field, n in cells],
        )

    want = values()

    def forbidden(*args, **kwargs):
        raise AssertionError("rebuilt the divisors or their matrix")

    rebuilders = (rcf_module.rcf_from_divisors, matrix.companion_diag, matrix.block_diag)
    modules = [m for name, m in sys.modules.items() if name.startswith("orbitcodes")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if any(value is f for f in rebuilders):
                monkeypatch.setattr(module, name, forbidden)
    elementary_divisors.cache_clear()
    assert values() == want


def _all_matrices(field, n):
    for entries in itertools.product(range(field.q), repeat=n * n):
        yield Mat(field, n, n, entries)


@pytest.mark.parametrize(
    "field, n",
    [(F2, 1), (F2, 2), (F2, 3), (F3, 1), (F3, 2), (F4, 1), (F4, 2)],
    ids=repr,
)
def test_divisors_separate_brute_force_conjugacy_orbits(field, n):
    # every matrix, singular ones included, grouped into its orbit under GL_n
    group = [(g, g.inverse()) for g in _all_matrices(field, n) if is_invertible(g)]
    unseen = set(_all_matrices(field, n))
    tuples = set()
    while unseen:
        a = unseen.pop()
        orbit = {g_inv * a * g for g, g_inv in group}
        unseen -= orbit
        divs = {elementary_divisors(a) for a in orbit}
        assert len(divs) == 1
        (d,) = divs
        assert d not in tuples
        tuples.add(d)
        assert companion_diag(rcf_from_divisors(d)) in orbit


def _det_x_minus(a):
    """det(xI - A) by cofactor expansion along the first row, on ascending
    coefficient lists."""
    F = a.field

    def add(f, g):
        if len(f) < len(g):
            f, g = g, f
        return [F.add(c, g[i]) if i < len(g) else c for i, c in enumerate(f)]

    def mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, c in enumerate(f):
            for j, d in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(c, d))
        return out

    def det(rows, cols):
        if not rows:
            return [1]
        out = [0]
        i = rows[0]
        for k, j in enumerate(cols):
            entry = [F.neg(a.entry(i, j))] + ([1] if i == j else [])
            term = mul(entry, det(rows[1:], cols[:k] + cols[k + 1 :]))
            out = add(out, term if k % 2 == 0 else [F.neg(c) for c in term])
        return out

    return Poly(F, det(list(range(a.rows)), list(range(a.cols))))


def test_char_poly_matches_cofactor_expansion():
    rng = random.Random(23)
    for field in (F2, F3, F4, GF(257)):
        for n in range(6):
            for _ in range(8):
                # sparse entries make zero subdiagonal columns and row swaps
                density = rng.choice((0.3, 0.6, 1.0))
                a = Mat(field, n, n, [
                    rng.randrange(field.q) if rng.random() < density else 0
                    for _ in range(n * n)
                ])
                assert char_poly(a) == _det_x_minus(a)
            if n >= 2:
                # block upper triangular: a zero block below the diagonal
                s = rng.randint(1, n - 1)
                a = Mat(field, n, n, [
                    0 if i >= s and j < s else rng.randrange(field.q)
                    for i in range(n) for j in range(n)
                ])
                assert char_poly(a) == _det_x_minus(a)


def test_empty_and_non_square_inputs():
    empty = Mat(F2, 0, 0, ())
    assert elementary_divisors(empty) == ()
    assert invariant_factors(empty) == ()
    assert char_poly(empty) == Poly.one(F2)
    wide = Mat.zeros(F2, 2, 3)
    for fn in (char_poly, elementary_divisors, invariant_factors, min_poly):
        with pytest.raises(ValueError):
            fn(wide)


def mat_elementary_divisors(a):
    """The elementary divisors from rref ranks of p(A)^j, p(A) and its
    powers by Mat products: the oracle for the packed-row ranks."""
    n = a.rows
    pairs = []
    for p, _ in factor(char_poly(a)):
        d = int(p.degree)
        base = power = evaluate_poly_at_matrix(p, a)
        ranks = [n, rank(base)]
        while ranks[-1] < ranks[-2]:
            power = power * base
            ranks.append(rank(power))
        at_least = [(hi - lo) // d for hi, lo in zip(ranks, ranks[1:])]
        for j in range(1, len(at_least)):
            pairs.extend([(p, j)] * (at_least[j - 1] - at_least[j]))
    assert sum(int(p.degree) * e for p, e in pairs) == n
    return tuple(sorted(pairs, key=divisor_key))


def split_divisors(field):
    """Pairs of divisor lists with one char poly and one largest exponent,
    such as p^3, p, p against p^2, p^2, p, of size at most 7; two pairs
    hold a power of x, so their matrices are singular."""
    x, lin = Poly.x(field), Poly(field, [1, 1])
    quad = irreducibles(field, 2)[0]
    return [
        ([(lin, 3), (lin, 1), (lin, 1)], [(lin, 2), (lin, 2), (lin, 1)]),
        ([(lin, 3), (lin, 1), (x, 2)], [(lin, 2), (lin, 2), (x, 1), (x, 1)]),
        ([(quad, 2), (lin, 1)], [(quad, 1), (quad, 1), (lin, 1)]),
        ([(x, 3), (x, 1), (lin, 2)], [(x, 2), (x, 2), (lin, 1), (lin, 1)]),
    ]


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9], ids=repr)
def test_packed_divisors_match_the_mat_rank_oracle(field):
    rng = random.Random(field.q)
    for _ in range(30):
        n = rng.randint(1, 7)
        # sparse entries make singular matrices and repeated factors
        density = rng.choice((0.3, 1.0))
        a = Mat(field, n, n, [
            rng.randrange(field.q) if rng.random() < density else 0 for _ in range(n * n)
        ])
        assert elementary_divisors(a) == mat_elementary_divisors(a), a
    for split in split_divisors(field):
        n = sum(int(p.degree) * e for p, e in split[0])
        for divisors in split:
            l = rand_invertible(rng, field, n)
            a = l.inverse() * companion_diag(divisors) * l
            assert elementary_divisors(a) == mat_elementary_divisors(a)
            assert elementary_divisors(a) == tuple(sorted(divisors, key=divisor_key))
