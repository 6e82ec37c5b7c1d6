import random

from orbitcodes import GF, Mat, is_invertible
from orbitcodes.rows import _Bits, _kernel, _Tuples

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def rand_invertible(rng, field, n):
    while True:
        m = Mat(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
        if is_invertible(m):
            return m


def test_times_is_the_mat_product():
    rng = random.Random(6)
    for field in (F2, F3, F4):
        for n in range(1, 6):
            kern = _kernel(field, n)
            for _ in range(10):
                m = rand_invertible(rng, field, n)
                v = [rng.randrange(field.q) for _ in range(n)]
                vm = Mat.from_rows(field, [v]) * m
                assert kern.times(kern.pack(v), kern.key(m)) == kern.pack(vm.row(0))


def test_tuples_over_gf2_is_the_bits_oracle():
    rng = random.Random(7)
    for n in range(1, 9):
        bits, tuples = _Bits(n), _Tuples(F2, n)
        for _ in range(20):
            m = rand_invertible(rng, F2, n)
            v = tuple(rng.randrange(2) for _ in range(n))
            w = bits.times(bits.pack(v), bits.key(m))
            assert bits.unpack((w,)) == tuples.times(v, tuples.key(m))
            a, b = m, rand_invertible(rng, F2, n)
            assert bits.unpack(bits.product(bits.key(a), bits.key(b))) == (a * b).entries
            assert tuples.unpack(tuples.product(tuples.key(a), tuples.key(b))) == (a * b).entries


def test_imager_memoizes_times():
    rng = random.Random(8)
    for field in (F2, F3, F4):
        kern = _kernel(field, 4)
        a = rand_invertible(rng, field, 4)
        image = kern.imager(a)
        for _ in range(20):
            v = kern.pack([rng.randrange(field.q) for _ in range(4)])
            assert image[v] == kern.times(v, kern.key(a))
            assert v in image
