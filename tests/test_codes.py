import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes import (
    GF,
    Mat,
    OrbitProfile,
    Poly,
    SingularMatrixError,
    act,
    block_bound,
    block_bound_refined,
    block_diag,
    block_structure,
    companion,
    companion_diag,
    component_codes,
    conjugate_code,
    distance_distribution,
    intersection_dim,
    irreducibles,
    is_invertible,
    matrix_order,
    min_distance,
    orbit_code,
    orbit_period,
    orbit_profile,
    stabilizer_order,
    subspace,
    subspace_distance,
)
from orbitcodes import codes, rows, verify
from orbitcodes.codes import _difference_profile, _walk
from orbitcodes.poly import order as poly_order
from orbitcodes.sampling import random_block_diag_basis, random_subspace, random_unit_divisors
from orbitcodes.verify import blockdiag_coprime_check, fullrank_coprime_check

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F257 = GF(257)  # above the table limit: the walk falls back to F.mul/F.add

GEN3 = companion(Poly(F2, [1, 1, 0, 1]))
SINGER_DIVISORS = ((Poly(F2, [1, 1, 0, 1]), 1), (Poly(F2, [1, 1, 1]), 1))


def mat2(rows):
    return Mat.from_rows(F2, rows)


def line(*coords):
    return subspace(mat2([list(coords)]))


def rand_invertible(rng, field, n):
    while True:
        m = Mat(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
        if is_invertible(m):
            return m


def test_subspace_canonicalizes():
    u = subspace(mat2([[1, 1, 0], [1, 0, 0]]))
    assert u.basis.to_lists() == [[1, 0, 0], [0, 1, 0]]
    assert (u.n, u.k) == (3, 2)


def test_subspace_already_canonical_is_unchanged():
    m = mat2([[1, 0, 0, 1], [0, 1, 0, 0]])
    assert subspace(m).basis == m


def test_subspace_collapses_duplicate_rows():
    u = subspace(mat2([[1, 0], [1, 0]]))
    assert u.k == 1


def test_subspace_rejects_zero():
    with pytest.raises(ValueError):
        subspace(Mat.zeros(F2, 2, 3))


def test_act_identity():
    u = line(1, 0, 0)
    assert act(u, Mat.identity(F2, 3)) == u


def test_act_moves_line():
    assert act(line(1, 0, 0), GEN3) == line(0, 1, 0)


def test_act_composes():
    rng = random.Random(1)
    u = subspace(mat2([[1, 1, 0], [0, 1, 1]]))
    a = rand_invertible(rng, F2, 3)
    b = rand_invertible(rng, F2, 3)
    assert act(act(u, a), b) == act(u, a * b)


def test_act_rejects_singular():
    with pytest.raises(SingularMatrixError):
        act(line(1, 0), Mat.zeros(F2, 2, 2))


def test_act_rejects_wrong_ambient():
    with pytest.raises(ValueError):
        act(line(1, 0, 0), Mat.identity(F2, 2))
    with pytest.raises(ValueError):
        act(line(1, 0, 0), Mat.identity(F3, 3))


def test_distance_to_self_is_zero():
    u = line(1, 0)
    assert subspace_distance(u, u) == 0


def test_distance_complementary_lines():
    assert subspace_distance(line(1, 0), line(0, 1)) == 2


def test_distance_nested():
    plane = subspace(mat2([[1, 0, 0], [0, 1, 0]]))
    assert subspace_distance(line(1, 0, 0), plane) == 1
    assert intersection_dim(line(1, 0, 0), plane) == 1


def test_distance_rejects_mixed_ambient():
    with pytest.raises(ValueError):
        subspace_distance(line(1, 0), line(1, 0, 0))
    with pytest.raises(ValueError):
        subspace_distance(line(1, 0), subspace(Mat.from_rows(F3, [[1, 0]])))


def test_orbit_of_line_under_order_seven_group():
    code = orbit_code(line(1, 0, 0), GEN3)
    assert len(code) == 7
    assert code.stab_order == 1
    # the orbit sweeps out every line of the ambient space
    assert len({v.basis for v in code.codebook}) == 7


def test_orbit_under_trivial_group():
    code = orbit_code(line(1, 0, 0), Mat.identity(F2, 3))
    assert len(code) == 1
    assert code.stab_order == 1


def test_whole_space_is_fixed():
    u = subspace(Mat.identity(F2, 2))
    a = companion(Poly(F2, [1, 1, 1]))
    code = orbit_code(u, a)
    assert len(code) == 1
    assert code.stab_order == matrix_order(a) == 3


def test_stabilizer_order_examples():
    assert stabilizer_order(line(1, 0, 0), Mat.identity(F2, 3)) == 1
    assert stabilizer_order(line(1, 0, 0), GEN3) == 1
    a = companion(Poly(F2, [1, 1, 1]))
    assert stabilizer_order(subspace(Mat.identity(F2, 2)), a) == 3


def test_min_distance_singer_line_code():
    code = orbit_code(line(1, 0, 0), GEN3)
    assert min_distance(code) == 2


def test_min_distance_equals_pairwise_minimum():
    rng = random.Random(14)
    for _ in range(12):
        field = rng.choice((F2, F3))
        n = rng.randint(2, 5)
        a = rand_invertible(rng, field, n)
        k = rng.randint(1, n - 1)
        u = subspace(
            next(
                m
                for m in iter(lambda: Mat(field, k, n, [rng.randrange(field.q) for _ in range(k * n)]), None)
                if any(m.entries)
            )
        )
        code = orbit_code(u, a)
        if len(code) < 2:
            continue
        pairwise = min(
            subspace_distance(v, w)
            for i, v in enumerate(code.codebook)
            for w in code.codebook[i + 1 :]
        )
        assert min_distance(code) == pairwise


def test_min_distance_two_element_code():
    a = companion(Poly(F2, [1, 0, 1]))  # order 2
    u = line(1, 0)
    code = orbit_code(u, a)
    assert len(code) == 2
    assert min_distance(code) == subspace_distance(u, act(u, a))


def test_min_distance_rejects_singleton():
    code = orbit_code(line(1, 0, 0), Mat.identity(F2, 3))
    with pytest.raises(ValueError):
        min_distance(code)


def test_distribution_singer_line_code():
    code = orbit_code(line(1, 0, 0), GEN3)
    assert distance_distribution(code) == (1, 6)


def test_distribution_singleton():
    # the tuple always has k+1 entries, so a singleton line code gives (1, 0)
    code = orbit_code(line(1, 0, 0), Mat.identity(F2, 3))
    assert distance_distribution(code) == (1, 0)


def test_distribution_starts_at_one():
    rng = random.Random(15)
    for _ in range(10):
        a = rand_invertible(rng, F2, 4)
        u = subspace(
            Mat(F2, 2, 4, [1, 0, rng.randrange(2), rng.randrange(2), 0, 1, rng.randrange(2), rng.randrange(2)])
        )
        dist = distance_distribution(orbit_code(u, a))
        assert dist[0] == 1
        assert sum(dist) == len(orbit_code(u, a))


def test_conjugate_code_by_identity():
    code = orbit_code(line(1, 0, 0), GEN3)
    same = conjugate_code(code, Mat.identity(F2, 3))
    assert set(same.codebook) == set(code.codebook)


def test_conjugate_code_preserves_parameters():
    rng = random.Random(16)
    code = orbit_code(line(1, 0, 0), GEN3)
    for _ in range(5):
        l = rand_invertible(rng, F2, 3)
        other = conjugate_code(code, l)  # internal assertions check parameters
        assert len(other) == 7
        assert distance_distribution(other) == (1, 6)


def test_block_structure_single_block_keeps_basis():
    u = subspace(mat2([[1, 0, 0], [0, 1, 0]]))
    bs = block_structure(u, [(Poly(F2, [1, 1, 0, 1]), 1)])
    assert len(bs.blocks) == 1
    assert bs.blocks[0].matrix == u.basis


def test_block_structure_block_diagonal_subspace():
    u = subspace(mat2([[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]]))
    bs = block_structure(u, SINGER_DIVISORS)
    assert [blk.k for blk in bs.blocks] == [1, 1]
    assert bs.blocks[0].matrix.to_lists() == [[1, 0, 0]]
    assert bs.blocks[1].matrix.to_lists() == [[1, 0]]


def test_block_structure_reduces_before_splitting():
    u = subspace(mat2([[1, 0, 0, 1, 1], [0, 0, 0, 1, 0]]))
    bs = block_structure(u, SINGER_DIVISORS)
    assert [blk.k for blk in bs.blocks] == [1, 1]
    # pivot rows restricted to their block columns
    assert bs.blocks[0].matrix.to_lists() == [[1, 0, 0]]
    assert bs.blocks[1].matrix.to_lists() == [[1, 0]]


def test_block_structure_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        block_structure(line(1, 0, 0), SINGER_DIVISORS)


def test_component_codes_sizes():
    u = subspace(mat2([[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]]))
    comps = component_codes(block_structure(u, SINGER_DIVISORS))
    assert [len(c) for c in comps] == [7, 3]


def test_component_codes_full_block_is_singleton():
    u = subspace(mat2([[1, 0], [0, 1]]))
    comps = component_codes(block_structure(u, [(Poly(F2, [1, 1, 1]), 1)]))
    assert len(comps) == 1 and len(comps[0]) == 1


def test_component_codes_report_empty_blocks():
    u = subspace(mat2([[1, 0, 0, 0, 0]]))
    comps = component_codes(block_structure(u, SINGER_DIVISORS))
    assert len(comps[0]) == 7
    assert comps[1] is None


def test_empty_sub_block_has_no_profile():
    u = subspace(mat2([[1, 0, 0, 0, 0]]))
    blk0, blk1 = block_structure(u, SINGER_DIVISORS).blocks
    assert blk1.k == 0 and blk1.profile is None
    assert blk0.profile.period == 7 and blk0.profile.k == 1


def test_block_structure_does_no_orbit_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("orbit work inside block_structure")

    u = subspace(mat2([[1, 0, 1, 1, 0], [0, 1, 0, 0, 1]]))
    monkeypatch.setattr(codes, "orbit_profile", forbidden)
    monkeypatch.setattr(codes, "rref", forbidden)
    bs = block_structure(u, SINGER_DIVISORS)
    assert [blk.k for blk in bs.blocks] == [2, 0]


def test_sub_blocks_are_profiled_without_rref(monkeypatch):
    # a sub-block is the rows with their pivot in its block, cut to its
    # columns: already the canonical basis of its row space
    rng = random.Random(27)
    blocks = []
    for i in range(60):
        field = (F2, F3, F4)[i % 3]
        n = rng.randint(2, PROFILE_MAX_D[field.q])
        divisors = random_unit_divisors(rng, field, n)
        if i % 2:
            u = subspace(random_block_diag_basis(rng, field, divisors)[0])
        else:
            u = random_subspace(rng, field, n, rng.randint(1, n))
        blocks += [blk for blk in block_structure(u, divisors).blocks if blk.k]
    for blk in blocks:
        assert subspace(blk.matrix).basis == blk.matrix
    expected = [orbit_profile(subspace(blk.matrix), [blk.divisor]) for blk in blocks]

    def forbidden(*args):
        raise AssertionError("rref ran on a sub-block")

    monkeypatch.setattr(codes, "rref", forbidden)
    assert [blk.profile for blk in blocks] == expected


def test_one_block_structure_shares_its_block_profile():
    u = line(1, 0, 1)
    bs = block_structure(u, [(Poly(F2, [1, 1, 0, 1]), 1)])
    assert bs.profile is bs.blocks[0].profile
    assert bs.profile == orbit_profile(u, [(Poly(F2, [1, 1, 0, 1]), 1)])


def test_two_block_structure_profile_is_the_whole_code_profile():
    u = subspace(mat2([[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]]))
    bs = block_structure(u, SINGER_DIVISORS)
    assert bs.profile == orbit_profile(u, SINGER_DIVISORS)
    assert bs.profile.period == 21


def test_code_parameters_read_the_code_profile(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the code's orbit was walked again")

    code = orbit_code(line(1, 0, 0), GEN3)
    monkeypatch.setattr(codes, "_walk", forbidden)
    assert min_distance(code) == 2
    assert distance_distribution(code) == (1, 6)
    assert code.profile.period == len(code) == 7


def test_block_bound_single_block_matches_distance():
    u = line(1, 0, 0)
    bs = block_structure(u, [(Poly(F2, [1, 1, 0, 1]), 1)])
    bound, lcm_card = block_bound(bs)
    code = orbit_code(u, companion_diag(bs.divisors))
    assert bound == min_distance(code) == 2
    assert lcm_card == len(code) == 7
    assert block_bound_refined(bs) == bound


def test_block_bound_three_plus_two():
    u = subspace(mat2([[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]]))
    bs = block_structure(u, SINGER_DIVISORS)
    assert block_bound(bs) == (4, 21)
    assert block_bound_refined(bs) == 2
    code = orbit_code(u, companion_diag(bs.divisors))
    assert len(code) == 21
    assert min_distance(code) == 2


def test_block_bound_fully_stabilized():
    u = subspace(mat2([[1, 0, 0, 1, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]))
    divisors = ((Poly(F2, [1, 1, 0, 1]), 1), (Poly(F2, [1, 1]), 2))
    bs = block_structure(u, divisors)
    if all(blk.k == blk.degree for blk in bs.blocks):
        bound, lcm_card = block_bound(bs)
        assert bound == 0 and lcm_card == 1
        assert block_bound_refined(bs) == 0


def test_block_bound_all_blocks_full():
    u = subspace(Mat.identity(F2, 5))
    bs = block_structure(u, SINGER_DIVISORS)
    assert block_bound(bs) == (0, 1)
    assert block_bound_refined(bs) == 0


def test_refined_bound_valid_when_period_exceeds_component_lcm():
    # spread sub-block with an adversarial tail: the whole-space orbit is
    # longer than the component lcm, so the refined bound falls back to 0
    divisors = ((Poly(F2, [1, 1, 0, 0, 1]), 1), (Poly(F2, [1, 1]), 2))
    u = subspace(mat2([[1, 0, 0, 0, 1, 1], [0, 1, 1, 0, 0, 0]]))
    bs = block_structure(u, divisors)
    refined = block_bound_refined(bs)
    code = orbit_code(u, companion_diag(bs.divisors))
    assert orbit_period(u, companion_diag(bs.divisors)) == len(code) == 15
    assert refined == 0
    assert min_distance(code) == 2 >= refined


def test_orbit_period_matches_code_size():
    u = subspace(mat2([[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]]))
    bs = block_structure(u, SINGER_DIVISORS)
    assert orbit_period(u, companion_diag(bs.divisors)) == 21


def test_orbit_period_rejects_singular_action():
    drop = mat2([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrixError):
        orbit_period(line(1, 0, 0), drop)
    # keeps the line's dimension but never brings it back
    trap = mat2([[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrixError):
        orbit_period(line(0, 1, 0), trap)


# ---------------------------------------------------------------------------
# the packed-row orbit walk against a Mat multiply and rref oracle

F8 = GF(2, 3)
F9 = GF(3, 2)
WALK_FIELDS = (F2, F3, F4, F8, F9, F257)  # every lane layout of rows._Lanes
MAX_N = {2: 6, 3: 4, 4: 4, 8: 3, 9: 3, 257: 3}


def oracle_orbit(u, a):
    """U, UA, UA^2, ... up to the period, by Mat multiply and rref."""
    orbit = [u]
    v = subspace(u.basis * a)
    while v != u:
        orbit.append(v)
        v = subspace(v.basis * a)
    return orbit


def profile_of(dims):
    """The sparse profile of dense dims[j] = dim(U n U A^j), j < period."""
    return OrbitProfile(len(dims), dims[0], tuple((j, d) for j, d in enumerate(dims) if j and d))


def dense_dims(u, a):
    """dim(U n U A^j) for j = 0 .. period - 1, by Mat multiply and rref."""
    return [intersection_dim(u, v) for v in oracle_orbit(u, a)]


def dense_profile(u, a):
    return profile_of(dense_dims(u, a))


def walk_generator(rng, field, n):
    """A random invertible matrix.  Over GF(257) it is a random conjugate
    of a permutation times a diagonal of powers of 2 (of order 16), so its
    order stays below 100 and the oracle's walks stay short."""
    if field.q < 257:
        return rand_invertible(rng, field, n)
    perm = list(range(n))
    rng.shuffle(perm)
    pd = Mat(field, n, n, [
        pow(2, rng.randrange(16), 257) if perm[i] == j else 0
        for i in range(n) for j in range(n)
    ])
    l = rand_invertible(rng, field, n)
    return l.inverse() * pd * l


def walk_divisors(rng, field):
    """Random unit divisors; over GF(257), (x - 2^i)^e with e <= 2, whose
    companion blocks stay small enough for the oracle."""
    if field.q < 257:
        return random_unit_divisors(rng, field, rng.randint(1, MAX_N[field.q]))
    return tuple(
        (Poly(field, [257 - pow(2, rng.randrange(16), 257), 1]), rng.randint(1, 2))
        for _ in range(rng.randint(1, 2))
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WALK_FIELDS), st.integers(0, 2**32))
def test_walk_matches_oracle(field, seed):
    rng = random.Random(seed)
    n = rng.randint(1, MAX_N[field.q])
    k = rng.randint(1, n)
    a = walk_generator(rng, field, n)
    u = random_subspace(rng, field, n, k)
    orbit = oracle_orbit(u, a)
    code = orbit_code(u, a)
    assert code.codebook == tuple(orbit)
    assert code.stab_order == stabilizer_order(u, a) == matrix_order(a) // len(orbit)
    assert orbit_period(u, a) == len(orbit)
    assert code.profile == profile_of([intersection_dim(u, v) for v in orbit])
    dist = [0] * (k + 1)
    for v in orbit:
        dist[subspace_distance(u, v) // 2] += 1
    assert distance_distribution(code) == tuple(dist)
    if len(orbit) > 1:
        assert min_distance(code) == min(subspace_distance(u, v) for v in orbit[1:])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WALK_FIELDS), st.integers(0, 2**32))
def test_component_profile_matches_oracle(field, seed):
    rng = random.Random(seed)
    divisors = walk_divisors(rng, field)
    n = sum(int(p.degree) * e for p, e in divisors)
    u = random_subspace(rng, field, n, rng.randint(1, n))
    for blk in block_structure(u, divisors).blocks:
        if blk.k == 0:
            continue
        p, e = blk.divisor
        assert blk.profile == dense_profile(subspace(blk.matrix), companion(p**e))


@pytest.mark.parametrize("field", WALK_FIELDS[:5])
def test_profile_walk_steps_rows_and_takes_no_echelon(monkeypatch, field):
    """A profile-only walk makes k row images per step and no echelon form:
    its overlaps come from ranks modulo U."""
    rng = random.Random(field.q)
    n = min(MAX_N[field.q], 3)
    a = rand_invertible(rng, field, n)
    u = random_subspace(rng, field, n, 2)
    images = []
    kern = type(rows._kernel(field, n))
    times = kern.times

    def counted(self, v, key):
        images.append(v)
        return times(self, v, key)

    def forbidden(*args):
        raise AssertionError("the walk took an echelon form")

    monkeypatch.setattr(kern, "times", counted)
    monkeypatch.setattr(kern, "echelon", forbidden)
    profile = _walk(u, a)
    assert profile == dense_profile(u, a)
    assert len(images) == u.k * profile.period


# ---------------------------------------------------------------------------
# the sparse profile's readers against dense expansions


def dense_refined(k, period, components):
    """The refined bound from dense component dims: the max over every
    1 <= j < period of sum_i dims_i[j mod N_i], residue 0 giving k_i."""
    if period == 1:
        return 0
    return 2 * k - 2 * max(
        sum(dims[j % len(dims)] for dims in components) for j in range(1, period)
    )


def check_sparse_readers(u, divisors):
    """Every reader of the structure's profiles against the dense dims of
    the Mat/rref orbits: overlap at every shift, the distribution, the
    minimum distance, and both block bounds."""
    bs = block_structure(u, divisors)
    whole = dense_dims(u, companion_diag(bs.divisors))
    nonempty = [blk for blk in bs.blocks if blk.k]
    components = [
        dense_dims(subspace(blk.matrix), companion(blk.divisor[0] ** blk.divisor[1]))
        for blk in nonempty
    ]
    for profile, dims in [(bs.profile, whole)] + [
        (blk.profile, c) for blk, c in zip(nonempty, components)
    ]:
        period, k = len(dims), dims[0]
        assert profile == profile_of(dims)
        shifts = range(-period, 2 * period + 1)
        assert [profile.overlap(j) for j in shifts] == [dims[j % period] for j in shifts]
        dist = [0] * (k + 1)
        for d in dims:
            dist[k - d] += 1
        assert profile.distribution == tuple(dist)
        expected = 2 * k - 2 * max(dims[1:]) if period > 1 else None
        assert profile.min_distance == expected
    total = sum(max(dims[1:], default=dims[0]) for dims in components)
    lcm = math.lcm(*map(len, components))
    assert block_bound(bs) == (2 * u.k - 2 * total, lcm)
    assert block_bound_refined(bs) == dense_refined(u.k, len(whole), components)
    return bs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((F2, F3)), st.booleans(), st.integers(0, 2**32))
def test_sparse_readers_match_dense_expansion(field, block_diagonal, seed):
    rng = random.Random(seed)
    divisors = random_unit_divisors(rng, field, rng.randint(1, MAX_N[field.q]))
    n = sum(int(p.degree) * e for p, e in divisors)
    if block_diagonal:
        u = subspace(random_block_diag_basis(rng, field, divisors)[0])
    else:
        u = random_subspace(rng, field, n, rng.randint(1, n))
    check_sparse_readers(u, divisors)


def test_sparse_readers_single_block_singer():
    p = Poly(F2, [1, 1, 0, 0, 1])  # primitive x^4 + x + 1
    periods = [
        check_sparse_readers(subspace(mat2(rows)), [(p, 1)]).profile.period
        for rows in ([[1, 0, 0, 0]], [[1, 0, 0, 1], [0, 1, 1, 0]], [[1, 0, 1, 0], [0, 0, 0, 1]])
    ]
    assert periods == [15, 15, 5]  # x^5 fixes the last: a multiple of F_4 = span(1, x^5)
    # F_8 = span(1, x^9, x^18) in F_64 under primitive x^6 + x + 1: period 9
    p = Poly(F2, [1, 1, 0, 0, 0, 0, 1])
    bs = check_sparse_readers(power_span(p, [0, 9, 18]), [(p, 1)])
    assert bs.profile.period == 9
    bs = check_sparse_readers(power_span(p, [0, 1]), [(p, 1)])
    assert bs.profile.period == 63 and bs.profile.overlaps


def test_sparse_readers_period_beyond_component_lcm():
    # two nonempty components of sizes 1 and 3 in a code of period 6
    divisors = ((Poly(F2, [1, 1]), 2), (Poly(F2, [1, 1, 1]), 1))
    u = subspace(mat2([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))
    bs = check_sparse_readers(u, divisors)
    assert bs.profile.period == 6
    assert [blk.profile.period for blk in bs.blocks] == [1, 3]
    assert block_bound_refined(bs) == 0
    divisors = ((Poly(F2, [1, 1, 0, 0, 1]), 1), (Poly(F2, [1, 1]), 2))
    u = subspace(mat2([[1, 0, 0, 0, 1, 1], [0, 1, 1, 0, 0, 0]]))
    assert check_sparse_readers(u, divisors).profile.period == 15


@pytest.mark.parametrize(
    "rows, divisors",
    [
        (Mat.identity(F2, 5), SINGER_DIVISORS),
        (mat2([[1, 1, 1]]), ((Poly(F2, [1, 0, 0, 1]), 1),)),  # x fixes 1 + x + x^2
        (Mat.from_rows(F3, [[1, 1]]), ((Poly(F3, [2, 1]), 1),) * 2),  # A = I
    ],
)
def test_sparse_readers_period_one(rows, divisors):
    bs = check_sparse_readers(subspace(rows), divisors)
    assert bs.profile == OrbitProfile(1, bs.k, ())
    assert bs.profile.min_distance is None and block_bound_refined(bs) == 0


def test_profiles_and_codes_are_hashable():
    u, a = line(1, 0, 0), GEN3
    code = orbit_code(u, a)
    counted = orbit_profile(u, [(Poly(F2, [1, 1, 0, 1]), 1)])
    assert hash(code) == hash(orbit_code(u, a))
    # the walk's profile and the difference count's: equal, so one hash
    assert counted == code.profile and hash(counted) == hash(code.profile)
    assert counted != code.profile._replace(overlaps=((1, 1),))
    assert len({code.profile, counted}) == 1


# ---------------------------------------------------------------------------
# the difference-count profile against the walk

F5 = GF(5)
PROFILE_MAX_D = {2: 8, 3: 5, 4: 4, 5: 3}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((F2, F3, F4, F5)), st.integers(0, 2**32))
def test_difference_profile_matches_walk(field, seed):
    rng = random.Random(seed)
    d = rng.randint(1, PROFILE_MAX_D[field.q])
    p = rng.choice([f for f in irreducibles(field, d) if f.coeff(0)])
    u = random_subspace(rng, field, d, rng.randint(1, d))
    bases = []
    profile = _walk(u, companion(p), bases)
    assert len(bases) == profile.period - 1
    assert _difference_profile(u, p) == profile
    assert orbit_profile(u, [(p, 1)]) == profile


def field_vector(p, power):
    """Coordinates of x^power mod p, the column j holding the x^j term."""
    r = pow(Poly.x(p.field), power, p)
    return [r.coeff(j) for j in range(int(p.degree))]


def power_span(p, powers):
    return subspace(Mat.from_rows(p.field, [field_vector(p, e) for e in powers]))


@pytest.mark.parametrize(
    "p, powers, period",
    [
        # x^4 + x^3 + x^2 + x + 1 over GF(2) has order 5: three cycles of <x>
        (Poly(F2, [1, 1, 1, 1, 1]), [0], 5),
        (Poly(F2, [1, 1, 1, 1, 1]), [0, 1], 5),
        (Poly(F2, [1, 1, 1, 1, 1]), [0, 1, 2, 3], 1),
        # x^2 + 1 over GF(3) has order 4: two cycles; F_3 is fixed by x^2 = -1
        (Poly(F3, [1, 0, 1]), [0], 2),
        (Poly(F3, [1, 0, 1]), [1, 0], 1),
        # primitive x^4 + x + 1: F_4 = span(1, x^5) is fixed by x^5, x^10
        (Poly(F2, [1, 1, 0, 0, 1]), [0, 5], 5),
        (Poly(F2, [1, 1, 0, 0, 1]), [3, 8], 5),
        # primitive x^6 + x + 1: F_8 = span(1, x^9, x^18), F_4 = span(1, x^21)
        (Poly(F2, [1, 1, 0, 0, 0, 0, 1]), [0, 9, 18], 9),
        (Poly(F2, [1, 1, 0, 0, 0, 0, 1]), [0, 21], 21),
        # x^3 + 2x + 1 over GF(3) has order 26; F_3 = span(1) is fixed by x^13
        (Poly(F3, [1, 2, 0, 1]), [0], 13),
        # x^2 + x + 2 over GF(4) has order 15 (primitive)
        (Poly(F4, [2, 1, 1]), [1], 5),
        (Poly(F4, [2, 1, 1]), [0, 1], 1),
        # x^2 + 2x + 1 over GF(4) has order 5: three cycles
        (Poly(F4, [1, 2, 1]), [0], 5),
    ],
)
def test_difference_profile_known_stabilizers(p, powers, period):
    u = power_span(p, powers)
    profile = _walk(u, companion(p))
    assert profile.period == period
    assert _difference_profile(u, p) == profile
    assert orbit_profile(u, [(p, 1)]).period == period


def of_order(field, d, order):
    return next(p for p in irreducibles(field, d) if p.coeff(0) and poly_order(p) == order)


def cosets_meeting(u, p):
    """How many cosets of <x> the nonzero vectors of U meet, by Mat multiply."""
    a, q = companion(p), u.field.q
    vectors = set()
    for coeffs in itertools.product(range(q), repeat=u.k):
        if any(coeffs):
            v = Mat._trusted(u.field, 1, u.k, coeffs) * u.basis
            vectors.add(v)
    cosets = 0
    while vectors:
        v = vectors.pop()
        cosets += 1
        for _ in range(poly_order(p)):
            v = v * a
            vectors.discard(v)
    return cosets


def counted_steps(monkeypatch):
    """Count the difference count's baby steps and giant steps."""
    steps = {"baby": 0, "giant": 0}
    for kernel in (rows._Bits, rows._Lanes):
        stepper, times = kernel.stepper, kernel.times

        def counting_stepper(self, p, stepper=stepper):
            step = stepper(self, p)

            def counted(v):
                steps["baby"] += 1
                return step(v)

            return counted

        def counting_times(self, v, rows, times=times):
            steps["giant"] += 1
            return times(self, v, rows)

        monkeypatch.setattr(kernel, "stepper", counting_stepper)
        monkeypatch.setattr(kernel, "times", counting_times)
    return steps


# non-primitive p, so several cosets of <x> meet U: ord 85 over GF(2),
# 40 over GF(3) and 21 over GF(4)
COSET_CASES = [(F2, 8, 85, 2), (F3, 4, 40, 2), (F4, 3, 21, 2)]


@pytest.mark.parametrize("field, d, order, k", COSET_CASES)
@pytest.mark.parametrize("m", [None, 1, 2, 5, 9])
def test_giant_steps_label_several_cosets(monkeypatch, field, d, order, k, m):
    """The labels equal the walk's profile for the table size the count
    picks (None) and for forced smaller ones, which run giant steps."""
    p = of_order(field, d, order)
    u = random_subspace(random.Random(order), field, d, k)
    assert cosets_meeting(u, p) >= 2
    profile = _walk(u, companion(p))
    if m is not None:
        monkeypatch.setattr(codes, "_baby_steps", lambda unlabelled, order: m)
    steps = counted_steps(monkeypatch)
    assert _difference_profile(u, p) == profile
    if m is not None or field is F2:
        assert steps["giant"] > 0


def test_giant_steps_label_a_primitive_cycle(monkeypatch):
    p = of_order(F2, 14, 2**14 - 1)
    u = random_subspace(random.Random(14), F2, 14, 3)
    profile = _walk(u, companion(p))
    steps = counted_steps(monkeypatch)
    assert _difference_profile(u, p) == profile
    assert steps["giant"] > 0


def test_difference_count_does_not_step_the_whole_cycle(monkeypatch):
    # primitive over GF(2) n = 16: the cycle has 65 535 steps, and baby-step
    # giant-step labels U's 7 nonzero vectors in fewer than 2^12
    p = of_order(F2, 16, 2**16 - 1)
    u = random_subspace(random.Random(16), F2, 16, 3)
    steps = counted_steps(monkeypatch)
    profile = _difference_profile(u, p)
    assert steps["baby"] + steps["giant"] < 2**12
    assert (profile.period, profile.k) == (2**16 - 1, 3)


def test_difference_count_at_gf2_n32():
    # x^32 + x^22 + x^2 + x + 1 is primitive: a list of its 2^32 - 1 pair
    # counts would not fit in memory, while U's 7 * 7 label pairs fit a dict
    p = Poly(F2, [1, 1, 1] + [0] * 19 + [1] + [0] * 9 + [1])
    assert poly_order(p) == 2**32 - 1
    u = random_subspace(random.Random(32), F2, 32, 3)
    profile = orbit_profile(u, [(p, 1)])
    assert (profile.period, profile.k) == (2**32 - 1, 3)
    # one cycle of <x> meets each ordered pair of distinct nonzero vectors
    # of U once, and |U n U A^j| - 1 of those pairs differ by j
    assert sum(2**d - 1 for _, d in profile.overlaps) == 7 * 6


def test_difference_count_matches_the_walk_on_seeded_inputs():
    rng = random.Random(20)
    for _ in range(40):
        field = rng.choice((F2, F3, F4, F5))
        d = rng.randint(1, PROFILE_MAX_D[field.q])
        p = rng.choice([f for f in irreducibles(field, d) if f.coeff(0)])
        u = random_subspace(rng, field, d, rng.randint(1, d))
        assert _difference_profile(u, p) == _walk(u, companion(p))


def test_equal_sub_blocks_share_one_profile(monkeypatch):
    walks = []
    walked = codes._walk

    def counted(u, a, bases=None):
        walks.append((u, a))
        return walked(u, a, bases)

    monkeypatch.setattr(codes, "_walk", counted)
    p = Poly(F2, [1, 1, 1])
    basis = [[0] * 10 for _ in range(3)]
    for row, pivot in zip(basis, (0, 4, 8)):
        row[pivot] = 1
    bs = block_structure(subspace(mat2(basis)), [(p, 2), (p, 2), (p, 1)])
    assert bs.blocks[0].matrix == bs.blocks[1].matrix
    assert bs.blocks[0].profile is bs.blocks[1].profile
    # lines: ord((x^2 + x + 1)^2) = 6 and ord(x^2 + x + 1) = 3, no overlaps
    assert block_bound(bs) == (6, 6)
    # the two equal (x^2 + x + 1)^2 blocks walk once; the third is counted
    assert len(walks) == 1


def test_bounds_suite_walks_no_pair_twice_within_a_structure(monkeypatch):
    """Within one block_structure, fullrank_coprime_check or
    blockdiag_coprime_check call, no (U, generator) pair is walked twice."""
    seen, repeats = set(), []
    walked = codes._walk

    def counted(u, a, bases=None):
        if (u, a) in seen:
            repeats.append((u, a))
        seen.add((u, a))
        return walked(u, a, bases)

    def resetting(fn):
        def wrapped(*args, **kwargs):
            seen.clear()
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(codes, "_walk", counted)
    for module, name in ((codes, "block_structure"), (verify, "block_structure"),
                         (verify, "fullrank_coprime_check"), (verify, "blockdiag_coprime_check")):
        monkeypatch.setattr(module, name, resetting(getattr(module, name)))
    assert not verify.suite_bounds(seed=0).failed
    assert repeats == []


@pytest.mark.parametrize(
    "p, k, counted",
    [
        # primitive x^12 + x^6 + x^4 + x + 1: the count costs less up to k = 10
        (Poly(F2, [1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1]), 3, True),
        (Poly(F2, [1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1]), 8, True),
        (Poly(F2, [1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1]), 11, False),
        (Poly(F2, [1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1]), 12, False),
        # x^5 + x^2 + 1: every proper U is counted, F_2^5 is walked
        (Poly(F2, [1, 0, 1, 0, 0, 1]), 4, True),
        (Poly(F2, [1, 0, 1, 0, 0, 1]), 5, False),
        # x^4 + x^3 + x^2 + x + 1 has order 5: three cycles of <x>
        (Poly(F2, [1, 1, 1, 1, 1]), 3, True),
        # x^3 + 2x + 1 over GF(3) has order 26
        (Poly(F3, [1, 2, 0, 1]), 2, True),
    ],
)
def test_orbit_profile_picks_the_cheaper_producer(monkeypatch, p, k, counted):
    u = random_subspace(random.Random(k), p.field, int(p.degree), k)
    profile = _walk(u, companion(p))

    def forbidden(*args):
        raise AssertionError("the other producer ran")

    monkeypatch.setattr(codes, "_walk" if counted else "_difference_profile", forbidden)
    assert orbit_profile(u, [(p, 1)]) == profile


def test_orbit_profile_falls_back_to_walk_for_other_generators():
    p = Poly(F2, [1, 1, 1])
    u = subspace(mat2([[1, 0, 0, 0]]))
    assert orbit_profile(u, [(p, 2)]) == _walk(u, companion(p**2))
    u = subspace(mat2([[1, 0, 0, 1, 1]]))
    gen = block_diag([companion(f**e) for f, e in SINGER_DIVISORS])
    assert orbit_profile(u, SINGER_DIVISORS) == _walk(u, gen)
    assert orbit_profile(u, SINGER_DIVISORS).period == 21
    # x^3 + 1 = (x + 1)(x^2 + x + 1) is reducible: x fixes 1 + x + x^2
    reducible = Poly(F2, [1, 0, 0, 1])
    u = line(1, 1, 1)
    assert orbit_profile(u, [(reducible, 1)]) == _walk(u, companion(reducible))
    assert orbit_profile(u, [(reducible, 1)]).period == 1


def test_orbit_profile_parameters_match_code():
    u = line(1, 0, 0)
    code = orbit_code(u, GEN3)
    profile = orbit_profile(u, [(Poly(F2, [1, 1, 0, 1]), 1)])
    assert profile.period == len(code)
    assert profile.distribution == distance_distribution(code)
    assert profile.min_distance == min_distance(code)
    whole = subspace(Mat.identity(F2, 3))
    assert orbit_profile(whole, [(Poly(F2, [1, 1, 0, 1]), 1)]).min_distance is None


def test_orbit_profile_rejects_mismatched_divisors():
    with pytest.raises(ValueError):
        orbit_profile(line(1, 0, 0), [(Poly(F2, [1, 1, 1]), 1)])
    with pytest.raises(ValueError):
        orbit_profile(line(1, 0, 0), [(Poly(F3, [1, 2, 0, 1]), 1)])


@pytest.mark.parametrize("fn", [orbit_profile, block_structure, fullrank_coprime_check])
@pytest.mark.parametrize(
    "divisors,message",
    [
        ([(Poly(F3, [1, 2, 0, 1]), 1)], "divisors and subspace must share a field"),
        # the degrees sum to n, so only the exponent is wrong
        ([(Poly(F2, [1, 1, 0, 1]), 1), (Poly(F2, [1, 1]), 0)], "divisor exponents must be positive"),
        ([(Poly(F2, [1, 1, 1]), 1)], "divisor degrees sum to 2, ambient dimension is 3"),
    ],
    ids=["other field", "e = 0", "degree sum"],
)
def test_divisor_takers_share_one_check(fn, divisors, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(line(1, 0, 0), divisors)


@pytest.mark.parametrize("fn", [orbit_profile, block_structure])
@pytest.mark.parametrize("rows,counted", [([[1, 0]], True), ([[1, 0], [0, 1]], False)], ids=["count", "walk"])
def test_a_non_monic_divisor_is_refused(fn, rows, counted):
    # 2x^2 + 2 is irreducible over GF(3); the count steps by p's own
    # coefficients, so only _divisors' monic check stands between it and
    # the profile of another matrix
    p, u = Poly(F3, [2, 0, 2]), subspace(Mat.from_rows(F3, rows))
    assert codes._count_is_cheaper(u, p.monic()) == counted
    with pytest.raises(ValueError, match="monic"):
        fn(u, [(p, 1)])


@pytest.mark.parametrize(
    "blocks,divisors,message",
    [
        ([], [], "one block matrix per divisor, and at least one, is required"),
        ([mat2([[1, 0, 0]])], [], "one block matrix per divisor, and at least one, is required"),
        ([mat2([[1, 0]])], [(Poly(F2, [1, 1, 0, 1]), 1)], "block width must match its divisor degree"),
    ],
    ids=["empty", "count", "width"],
)
def test_blockdiag_check_rejects_malformed_blocks(blocks, divisors, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        blockdiag_coprime_check(blocks, divisors)


@pytest.mark.parametrize("fn", [orbit_code, stabilizer_order])
@pytest.mark.parametrize(
    "generator,message",
    [
        (Mat.identity(F3, 3), "subspace and matrix must share a field"),
        (companion(Poly(F2, [1, 1, 1])), "expected a 3x3 matrix, got 2x2"),
    ],
    ids=["other field", "other size"],
)
def test_group_of_another_ambient_space_is_rejected(fn, generator, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(line(1, 0, 0), generator)


def test_fullrank_check_single_block_trivially_equal():
    report = fullrank_coprime_check(line(1, 0, 0), [(Poly(F2, [1, 1, 0, 1]), 1)])
    assert report.ok
    assert report.values["code_distance"] == report.values["component_min"] == 2


def test_fullrank_check_instance_names_the_extension_modulus():
    divisors = [(irreducibles(F4, 2)[0], 1)]
    report = fullrank_coprime_check(subspace(Mat.from_rows(F4, [[1, 0]])), divisors)
    assert report.ok
    assert report.instance["field"] == {"p": 2, "m": 2, "modulus": "1,1,1"}


def test_fullrank_check_three_plus_two():
    report = fullrank_coprime_check(line(1, 0, 0, 1, 0), SINGER_DIVISORS)
    assert report.ok
    assert report.values["component_sizes"] == [7, 3]
    assert report.values["code_distance"] == 2


def test_fullrank_check_three_plus_four():
    divisors = ((Poly(F2, [1, 1, 0, 1]), 1), (Poly(F2, [1, 1, 0, 0, 1]), 1))
    report = fullrank_coprime_check(line(1, 0, 0, 1, 0, 0, 0), divisors)
    assert report.ok
    assert sorted(report.values["component_sizes"]) == [7, 15]


def test_fullrank_check_skips_unmet_hypotheses():
    # k = 2 exceeds the width-1 second block
    divisors = ((Poly(F2, [1, 1, 0, 1]), 1), (Poly(F2, [1, 1]), 1))
    u = subspace(mat2([[1, 0, 0, 0], [0, 1, 0, 1]]))
    assert fullrank_coprime_check(u, divisors).skipped

    # rank-deficient slice
    u2 = subspace(mat2([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]))
    assert fullrank_coprime_check(u2, SINGER_DIVISORS).skipped


def test_fullrank_check_reports_known_counterexample():
    divisors = ((Poly(F2, [1, 0, 1, 1]), 1), (Poly(F2, [1, 1, 1, 1, 1]), 1))
    u = subspace(mat2([[1, 0, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 1, 1]]))
    report = fullrank_coprime_check(u, divisors)
    assert report.status == "mismatch"
    assert report.values["code_distance"] == 4
    assert report.values["component_min"] == 2
    assert report.instance["divisors"] == [
        {"p": "1,0,1,1", "e": 1},
        {"p": "1,1,1,1,1", "e": 1},
    ]


def test_blockdiag_check_single_block():
    report = blockdiag_coprime_check([mat2([[1, 0, 0]])], [(Poly(F2, [1, 1, 0, 1]), 1)])
    assert report.ok
    assert report.values["brute_distance"] == report.values["bound_refined"] == 2


def test_blockdiag_check_three_plus_two():
    report = blockdiag_coprime_check(
        [mat2([[1, 0, 0]]), mat2([[1, 0]])], SINGER_DIVISORS
    )
    assert report.ok
    assert report.values["brute_distance"] == 2
    assert report.values["bound_refined"] == 2
    assert report.values["bound_literal"] == 4
    assert report.values["literal_matches"] is False


def test_blockdiag_check_walks_the_whole_code_once(monkeypatch):
    walks = []
    walked = codes._walk

    def counted(u, a, bases=None):
        walks.append((u, a))
        return walked(u, a, bases)

    monkeypatch.setattr(codes, "_walk", counted)
    report = blockdiag_coprime_check([mat2([[1, 0, 0]]), mat2([[1, 0]])], SINGER_DIVISORS)
    assert report.ok and report.values["brute_distance"] == 2
    # both components take the difference count; the distance is the walk's
    assert len(walks) == 1


def test_blockdiag_check_skips_equal_cardinalities():
    divisors = ((Poly(F2, [1, 1, 0, 1]), 1), (Poly(F2, [1, 0, 1, 1]), 1))
    report = blockdiag_coprime_check([mat2([[1, 0, 0]]), mat2([[1, 0, 0]])], divisors)
    assert report.skipped
    assert "coprime" in report.reason
