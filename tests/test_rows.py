import random
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import GF, Mat, companion, irreducibles, is_invertible, rref
from orbitcodes.poly import x_power
from orbitcodes.rows import _Bits, _Keys, _kernel, _Lanes, _LaneTables

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
LANE_FIELDS = (F3, F4, GF(5), GF(2, 3), GF(3, 2), GF(257))
# every kernel against the _Tuples oracle: _Bits over GF(2), _Lanes above it
KERNEL_FIELDS = (F2,) + LANE_FIELDS


class _Tuples(_Keys):
    """Rows over GF(q) as tuples of element codes reduced with the field's
    lookups: the oracle for the packed kernels.  A reduced echelon basis
    lists its rows in decreasing order, since an earlier pivot is a larger
    leading entry."""

    def __init__(self, field: GF, n: int):
        self.n, self.q = n, field.q
        self.zero = (0,) * n
        self.add, self.mul, self.neg, self.inv = field.lookups

    pack = staticmethod(tuple)

    @staticmethod
    def unpack(key):
        return tuple(chain.from_iterable(key))

    def axpy(self, r, x, b):
        """The row r + x b."""
        add, m = self.add, self.mul[x]
        return tuple([add[s][m[t]] for s, t in zip(r, b)])

    def times(self, v, rows):
        axpy, w = self.axpy, self.zero
        for x, g in zip(v, rows):
            if x:
                w = axpy(w, x, g)
        return w

    def stepper(self, a):
        axpy, feedback = self.axpy, a.row(self.n - 1)

        def step(v):
            w = (0,) + v[:-1]
            return axpy(w, v[-1], feedback) if v[-1] else w

        return step

    def span(self, rows):
        axpy = self.axpy
        vecs = [self.zero]
        for r in rows:
            vecs += [axpy(v, x, r) for x in range(1, self.q) for v in vecs]
        return vecs

    def echelon(self, rows):
        axpy, mul, neg, inv = self.axpy, self.mul, self.neg, self.inv
        basis = []  # (pivot column, row)
        for r in rows:
            for c, b in basis:
                if r[c]:
                    r = axpy(r, neg[r[c]], b)
            c = next((j for j, x in enumerate(r) if x), None)
            if c is None:
                continue
            if r[c] != 1:
                m = mul[inv[r[c]]]
                r = tuple([m[t] for t in r])
            basis = [(cb, axpy(b, neg[b[c]], r) if b[c] else b) for cb, b in basis]
            basis.append((c, r))
        return tuple(sorted((b for _, b in basis), reverse=True))


def rand_invertible(rng, field, n):
    while True:
        m = Mat(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
        if is_invertible(m):
            return m


def rand_rows(rng, field, n, count):
    """Random rows, some of them repeated or zero, so echelon and rank meet
    dependent rows."""
    rows = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(count)]
    if rows and rng.random() < 0.5:
        rows.append(rng.choice(rows))
    if rng.random() < 0.2:
        rows.append((0,) * n)
    rng.shuffle(rows)
    return rows


def kernels(field, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3 if field.q > 9 else 5)
    return rng, n, _kernel(field, n), _Tuples(field, n)


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


def test_kernel_choice():
    assert isinstance(_kernel(F2, 3), _Bits)
    assert all(isinstance(_kernel(field, 3), _Lanes) for field in LANE_FIELDS)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 2**32))
def test_lanes_pack_in_tuple_order(field, seed):
    rng, n, lanes, _ = kernels(field, seed)
    rows = rand_rows(rng, field, n, 6)
    packed = [lanes.pack(r) for r in rows]
    assert lanes.unpack(tuple(packed)) == tuple(chain.from_iterable(rows))
    assert sorted(rows) == [rows[i] for i in sorted(range(len(rows)), key=packed.__getitem__)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 2**32))
def test_lanes_times_and_product_match_tuples(field, seed):
    rng, n, lanes, tuples = kernels(field, seed)
    a, b = rand_invertible(rng, field, n), rand_invertible(rng, field, n)
    for v in rand_rows(rng, field, n, 5):
        assert lanes.unpack((lanes.times(lanes.pack(v), lanes.key(a)),)) == tuples.times(v, tuples.key(a))
    key = lanes.product(lanes.key(a), lanes.key(b))
    assert lanes.unpack(key) == tuples.unpack(tuples.product(tuples.key(a), tuples.key(b)))
    assert lanes.unpack(key) == (a * b).entries


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 2**32))
def test_lanes_echelon_and_rank_match_tuples(field, seed):
    rng, n, lanes, tuples = kernels(field, seed)
    rows = rand_rows(rng, field, n, rng.randint(0, n + 1))
    key = lanes.echelon([lanes.pack(r) for r in rows])
    # the same RREF rows in the same order: decreasing, as the ints are
    assert lanes.unpack(key) == tuples.unpack(tuples.echelon(rows))
    assert list(key) == sorted(key, reverse=True)
    if rows:
        assert len(key) == rref(Mat.from_rows(field, rows)).rank
    assert len(lanes.pivots([lanes.pack(r) for r in rows])) == len(key)
    # modulo the span of a reduced basis: the rank of the stacked rows less its own
    others = rand_rows(rng, field, n, rng.randint(1, n))
    stacked = lanes.echelon([lanes.pack(r) for r in rows + others])
    assert len(lanes.pivots([lanes.pack(r) for r in others], key)) == len(stacked) - len(key)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 2**32))
def test_lanes_span_matches_tuples(field, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    lanes, tuples = _kernel(field, n), _Tuples(field, n)
    rows = tuples.echelon(rand_rows(rng, field, n, rng.randint(1, 2 if field.q <= 9 else 1)))
    vecs = lanes.span([lanes.pack(r) for r in rows])
    assert vecs[0] == 0
    assert len(vecs) == field.q ** len(rows)
    assert {lanes.unpack((v,)) for v in vecs} == set(tuples.span(rows))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 2**32))
def test_lanes_stepper_and_multiplier_match_tuples(field, seed):
    rng = random.Random(seed)
    d = rng.randint(1, 3 if field.q <= 9 else 1)
    p = rng.choice([f for f in irreducibles(field, d) if f.coeff(0)])
    lanes, tuples = _kernel(field, d), _Tuples(field, d)
    a = companion(p)
    step, oracle = lanes.stepper(a), tuples.stepper(a)
    for v in rand_rows(rng, field, d, 5):
        assert lanes.unpack((step(lanes.pack(v)),)) == oracle(v) == (Mat.from_rows(field, [v]) * a).row(0)
    e = rng.randrange(1, 50)
    r = x_power(p, e)
    key = lanes.multiplier(step, lanes.pack(r))
    assert lanes.unpack(key) == tuples.unpack(tuples.multiplier(oracle, tuple(r)))
    assert lanes.unpack(key) == (a**e).entries


def slot_scale(tables, field, r, x):
    """x r slot by slot, by the field's own product on element codes: the
    oracle for every scale routine."""
    mask, width, codes, lanes = tables.mask, tables.width, tables.codes, tables.lanes
    out = shift = 0
    while r:
        out |= lanes[field.mul(codes[x], codes[r & mask])] << shift
        r >>= width
        shift += width
    return out


@pytest.mark.parametrize("field", KERNEL_FIELDS + (GF(2, 4), GF(7)), ids=repr)
def test_scale_matches_the_slot_loop_for_every_scalar(field):
    rng = random.Random(field.q)
    for n in (1, 2, 3, 4, 12):
        tables = _LaneTables(field, n)
        rows = [0] + [
            sum(tables.lanes[rng.randrange(field.q)] << (i * tables.width) for i in range(n))
            for _ in range(4)
        ]
        for c in range(field.q):
            x = tables.lanes[c]
            for r in rows:
                assert tables.scale(r, x) == slot_scale(tables, field, r, x), (n, c, r)
    # at n = 12 the lane-parallel routine was the one checked
    if field.m > 1 and field.p > 2:
        assert tables.scale.__name__ == "slot_by_slot"
    else:
        assert tables.scale.__name__ == ("bit_planes" if field.p == 2 else "double_and_add")
    # at n = 1 no routine beats one slot
    assert _LaneTables(field, 1).scale.__name__ == "slot_by_slot"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 2**32))
def test_plus_scalar_adds_into_the_diagonal(field, seed):
    rng, n, kern, _ = kernels(field, seed)
    a = Mat(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
    c = rng.randrange(field.q)
    scalar = Mat(field, n, n, [c if i == j else 0 for i in range(n) for j in range(n)])
    assert kern.unpack(kern.plus_scalar(kern.key(a), c)) == (a + scalar).entries


def test_kernels_share_field_tables_and_keep_their_own_row_memos():
    # the tables are built once per (field, n); the memos keyed by rows are
    # each kernel's own and go with it
    one, two = _Lanes(F4, 3), _Lanes(F4, 3)
    assert one.scale is two.scale and one._mul is two._mul
    assert one.multiples is not two.multiples
    assert one._row_codes is not two._row_codes
    assert _Lanes(F4, 4).scale is not one.scale
