import hashlib
import importlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import (
    GF,
    Mat,
    Poly,
    SingularMatrixError,
    block_diag,
    companion,
    is_invertible,
    rank,
    rref,
)
from orbitcodes import poly
from orbitcodes.cli import main
from orbitcodes.matrix import block_diag_basis, companion_diag
from orbitcodes.sampling import random_matrix
from test_outputs import PINNED

F2 = GF(2)
F3 = GF(3)


def test_mul_identity():
    a = Mat.from_rows(F2, [[1, 0, 1], [0, 1, 1]])
    assert a * Mat.identity(F2, 3) == a
    assert Mat.identity(F2, 2) * a == a


def test_mul_shape_mismatch():
    with pytest.raises(ValueError):
        Mat.identity(F2, 2) * Mat.identity(F2, 3)


def test_mixed_field_rejected():
    with pytest.raises(ValueError):
        Mat.identity(F2, 2) * Mat.identity(F3, 2)


def test_swap_matrix_is_its_own_inverse():
    s = Mat.from_rows(F2, [[0, 1], [1, 0]])
    assert s.inverse() == s


def test_inverse_of_singular_raises():
    with pytest.raises(SingularMatrixError):
        Mat.from_rows(F2, [[1, 1], [1, 1]]).inverse()


@pytest.mark.parametrize("field, n, invertible", [(F3, 2, 48), (F2, 3, 168)])
def test_inverse_exhaustive(field, n, invertible):
    # |GL_n(F_q)| = (q^n - 1)(q^n - q)...(q^n - q^(n-1)): 8 * 6 and 7 * 6 * 4
    identity = Mat.identity(field, n)
    count = 0
    for entries in itertools.product(range(field.q), repeat=n * n):
        m = Mat(field, n, n, entries)
        try:
            inv = m.inverse()
        except SingularMatrixError:
            assert not is_invertible(m)
            continue
        assert m * inv == identity and inv * m == identity
        count += 1
    assert count == invertible


def test_negative_power_uses_inverse():
    a = Mat.from_rows(F3, [[1, 1], [0, 1]])
    assert a ** (-1) == a.inverse()
    assert a**0 == Mat.identity(F3, 2)
    assert a**3 == a * a * a


@pytest.mark.parametrize("e", [0, 1, 2, 3, 6, 7, 8, 13, 100, -1, -6])
def test_power_makes_no_product_with_the_identity(monkeypatch, e):
    """a ** e squares e.bit_length() - 1 times and makes popcount(e) - 1
    other products, none of them with I; a ** 0 makes none.  A negative e
    inverts once and then counts as |e|."""
    a = companion(Poly(F3, [2, 1, 0, 1]))
    step = a if e >= 0 else a.inverse()
    want = Mat.identity(F3, 3)
    for _ in range(abs(e)):
        want = want * step
    mul, products = Mat.__mul__, []

    def counted(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(Mat, "__mul__", counted)
    assert a**e == want
    e = abs(e)
    assert len(products) == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0)


def test_rref_identity():
    r = rref(Mat.identity(F2, 3))
    assert r.matrix == Mat.identity(F2, 3)
    assert r.pivots == (0, 1, 2)
    assert r.rank == 3


def test_rref_example():
    r = rref(Mat.from_rows(F2, [[1, 1, 0], [1, 1, 1]]))
    assert r.matrix.to_lists() == [[1, 1, 0], [0, 0, 1]]
    assert r.pivots == (0, 2)
    assert r.rank == 2


def test_rref_zero_matrix():
    r = rref(Mat.zeros(F2, 2, 3))
    assert r.matrix == Mat.zeros(F2, 2, 3)
    assert r.rank == 0


def test_rref_leading_one_over_f3():
    r = rref(Mat.from_rows(F3, [[2, 1], [1, 2]]))
    assert r.matrix.row(0)[r.pivots[0]] == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 ** 12 - 1))
def test_rref_idempotent(seed):
    rng = random.Random(seed)
    m = Mat(F3, 3, 4, [rng.randrange(3) for _ in range(12)])
    once = rref(m).matrix
    assert rref(once).matrix == once


def test_companion_cubic():
    c = companion(Poly(F2, [1, 1, 0, 1]))
    assert c.to_lists() == [[0, 1, 0], [0, 0, 1], [1, 1, 0]]


def test_companion_negates_coefficients():
    c = companion(Poly(F3, [1, 0, 1]))
    assert c.to_lists() == [[0, 1], [2, 0]]


def test_companion_linear():
    assert companion(Poly(F2, [1, 1])).to_lists() == [[1]]


def test_companion_rejects_bad_input():
    with pytest.raises(ValueError):
        companion(Poly.one(F2))
    with pytest.raises(ValueError):
        companion(Poly(F3, [1, 2]))


def test_block_diag_single():
    b = companion(Poly(F2, [1, 1, 0, 1]))
    assert block_diag([b]) == b


def test_block_diag_ones():
    one = Mat.from_rows(F2, [[1]])
    assert block_diag([one, one]) == Mat.identity(F2, 2)


def test_block_diag_assembly():
    d = block_diag([companion(Poly(F2, [1, 1, 0, 1])), companion(Poly(F2, [1, 1, 1]))])
    assert d.to_lists() == [
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 1],
    ]


def test_block_diag_rejects_non_square():
    with pytest.raises(ValueError):
        block_diag([Mat.zeros(F2, 1, 2)])


def test_block_diag_is_the_square_case_of_block_diag_basis():
    rng = random.Random(7)
    for field in (F2, F3):
        for _ in range(20):
            blocks = [
                Mat(field, s, s, [rng.randrange(field.q) for _ in range(s * s)])
                for s in (rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            ]
            assert block_diag(blocks) == block_diag_basis(blocks)


def test_block_diag_basis_keeps_the_columns_of_a_zero_row_block():
    a = Mat.from_rows(F2, [[1, 1]])
    d = block_diag_basis([a, Mat.zeros(F2, 0, 3), Mat.from_rows(F2, [[1]])])
    assert (d.rows, d.cols) == (2, 6)
    assert d.to_lists() == [[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]]


def test_companion_diag_keeps_the_given_order():
    p, r = Poly(F2, [1, 1, 1]), Poly(F2, [1, 1, 0, 1])
    assert companion_diag([(r, 1), (p, 2)]) == block_diag([companion(r), companion(p**2)])
    assert companion_diag([(p, 1), (r, 1)]) != companion_diag([(r, 1), (p, 1)])


def test_identity_and_zeros_reject_negative_sizes():
    assert Mat.identity(F3, 0) == Mat(F3, 0, 0, [])
    assert Mat.identity(F3, 3) == Mat(F3, 3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1])
    assert Mat.zeros(F3, 0, 2) == Mat(F3, 0, 2, [])
    rng = random.Random(0)
    for make in (
        lambda: Mat.identity(F2, -1),
        lambda: Mat.zeros(F2, 2, -1),
        lambda: random_matrix(rng, F2, -1, 2),
    ):
        with pytest.raises(ValueError):
            make()


def test_transpose():
    a = companion(Poly(F2, [1, 1, 0, 1]))
    assert a.transpose().to_lists() == [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
    assert a.transpose().transpose() == a


def test_rank_and_invertibility():
    assert rank(Mat.from_rows(F2, [[1, 1], [1, 1]])) == 1
    assert not is_invertible(Mat.zeros(F2, 2, 2))
    assert is_invertible(Mat.identity(F3, 4))
    assert not is_invertible(Mat.zeros(F2, 2, 3))


def test_inverse_round_trip_random():
    rng = random.Random(3)
    for _ in range(25):
        f = rng.choice((F2, F3))
        n = rng.randint(1, 5)
        while True:
            m = Mat(f, n, n, [rng.randrange(f.q) for _ in range(n * n)])
            if is_invertible(m):
                break
        assert (m * m.inverse()).is_identity()
        assert (m.inverse() * m).is_identity()


def test_add_sub():
    a = Mat.from_rows(F3, [[1, 2], [0, 1]])
    b = Mat.from_rows(F3, [[2, 2], [1, 0]])
    assert (a + b).to_lists() == [[0, 1], [1, 1]]
    assert (a - a) == Mat.zeros(F3, 2, 2)
    assert (-a + a) == Mat.zeros(F3, 2, 2)


def test_hashable_for_sets():
    a = Mat.identity(F2, 2)
    b = Mat.from_rows(F2, [[1, 0], [0, 1]])
    assert len({a, b}) == 1


def schoolbook_rref(m):
    """Reduced row echelon rows by the field's methods, one entry at a time."""
    F = m.field
    rows = [list(m.row(i)) for i in range(m.rows)]
    r = 0
    for col in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv_p = F.inv(rows[r][col])
        rows[r] = [F.mul(inv_p, v) for v in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [F.sub(v, F.mul(c, w)) for v, w in zip(rows[i], rows[r])]
        r += 1
    return [e for row in rows for e in row]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((F2, F3, GF(2, 2), GF(257))), st.integers(0, 2**32))
def test_arithmetic_matches_field_methods(field, seed):
    """Mat arithmetic indexes the field's lookups (lazy dicts above q = 256);
    each result must equal the entry-wise computation by F.add and F.mul."""
    rng = random.Random(seed)
    n, k, m = (rng.randint(1, 4) for _ in range(3))
    a = Mat(field, n, k, [rng.randrange(field.q) for _ in range(n * k)])
    b = Mat(field, k, m, [rng.randrange(field.q) for _ in range(k * m)])
    c = Mat(field, n, k, [rng.randrange(field.q) for _ in range(n * k)])
    F = field
    product = []
    for i in range(n):
        for j in range(m):
            acc = 0
            for t in range(k):
                acc = F.add(acc, F.mul(a.entry(i, t), b.entry(t, j)))
            product.append(acc)
    assert (a * b).entries == tuple(product)
    assert (a + c).entries == tuple(F.add(x, y) for x, y in zip(a.entries, c.entries))
    assert (-a).entries == tuple(F.neg(x) for x in a.entries)
    assert list(rref(a).matrix.entries) == schoolbook_rref(a)
    if n == k and is_invertible(a):
        assert (a * a.inverse()).is_identity()


FAST_PATH_RUNS = [entry for entry in PINNED if entry[0][0] in ("code", "classify")]


@pytest.mark.parametrize(
    "argv, exit_code, digest", FAST_PATH_RUNS, ids=[" ".join(argv) for argv, _, _ in FAST_PATH_RUNS]
)
def test_pinned_code_and_classify_runs_need_no_mat_arithmetic(
    capsys, monkeypatch, argv, exit_code, digest
):
    # the module docstring's claim: code and classify run on packed rows,
    # and Mat multiply, power and inverse are only the oracle
    def forbidden(*args, **kwargs):
        raise AssertionError("Mat arithmetic ran")

    for name in ("__mul__", "__pow__", "inverse"):
        monkeypatch.setattr(Mat, name, forbidden)
    # no memo left by an earlier test stands in for the work
    poly.is_irreducible.cache_clear()
    poly._irreducible_order.cache_clear()
    importlib.import_module("orbitcodes.rcf").elementary_divisors.cache_clear()
    code = main(list(argv))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)
