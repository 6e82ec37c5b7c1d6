import gc
import importlib
import math
import random
import re
import sys

import pytest

from orbitcodes import (
    GF,
    CyclicGroup,
    Mat,
    Poly,
    SingularMatrixError,
    block_diag,
    class_representatives,
    closure,
    companion,
    conjugacy_witness,
    divisors_order,
    irreducibles,
    is_invertible,
    matrix_order,
    same_signature,
    signature,
    signature_of_divisors,
)
from orbitcodes import groups, matrix, numtheory, polykernel, poly, rows
from orbitcodes.matrix import companion_diag
from orbitcodes.rcf import char_poly, divisor_key, elementary_divisors
from orbitcodes.sampling import random_unit_divisors
from orbitcodes.verify import (
    brute_force_cyclic_classes,
    brute_force_order,
    brute_force_poly_order,
)

F2 = GF(2)
F3 = GF(3)

GEN3 = Mat.from_rows(F2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])  # companion of x^3+x+1


def rand_invertible(rng, field, n):
    while True:
        m = Mat(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
        if is_invertible(m):
            return m


def test_matrix_order_identity():
    assert matrix_order(Mat.identity(F2, 3)) == 1


def test_matrix_order_cubic_generator():
    assert matrix_order(GEN3) == 7
    assert brute_force_order(GEN3) == 7


def test_matrix_order_block_diagonal_lcm():
    d = block_diag([GEN3, companion(Poly(F2, [1, 1, 1]))])
    assert matrix_order(d) == 21
    assert brute_force_order(d) == 21


def test_divisors_order_matches_smith_form():
    rng = random.Random(5)
    for field in (F2, F3, GF(2, 2)):
        for n in range(1, 6):
            divisors = random_unit_divisors(rng, field, n)
            a = block_diag([companion(p**e) for p, e in divisors])
            order = matrix_order(a)
            assert divisors_order(divisors) == order


def test_divisor_order_check_matches_the_matrix_power():
    # divisors_order checks x^N = 1 mod every p^e; matrix_order finds the
    # divisors of companion_diag(divisors) again and checks A^N = I
    rng = random.Random(19)
    for field in (F2, F3, GF(2, 2), GF(5), GF(3, 2)):
        for _ in range(12):
            divisors = random_unit_divisors(rng, field, rng.randint(1, 7 if field.q < 5 else 4))
            assert divisors_order(divisors) == matrix_order(companion_diag(divisors))


def test_order_checks_reject_a_wrong_order(monkeypatch):
    # (x^2 + x + 1)^2 and x^3 + x + 1 over GF(2): N = lcm(3 * 2, 7) = 42
    divisors = ((Poly(F2, [1, 1, 1]), 2), (Poly(F2, [1, 1, 0, 1]), 1))
    a = companion_diag(divisors)
    assert divisors_order(divisors) == matrix_order(a) == 42
    for r in (2, 3, 7):
        # the true order 42 divides no N / r
        monkeypatch.setattr(groups, "_factored_order", lambda divs, r=r: 42 // r)
        for call in (lambda: matrix_order(a), lambda: divisors_order(divisors)):
            with pytest.raises(AssertionError, match=re.escape("failed the A^N = I check")):
                call()


def test_divisors_order_rejects_x():
    x = Poly.x(F2)
    with pytest.raises(SingularMatrixError, match="power of x"):
        divisors_order([(Poly(F2, [1, 1]), 1), (x, 2)])


def test_matrix_order_rejects_singular():
    with pytest.raises(SingularMatrixError):
        matrix_order(Mat.zeros(F2, 2, 2))


def test_order_and_signature_reject_singular_with_one_message():
    text = "matrix is singular (an elementary divisor is a power of x), not in GL_n"
    z, i = Mat.zeros(F2, 2, 2), Mat.identity(F2, 2)
    for call in (matrix_order, signature, lambda a: same_signature(a, i), lambda a: same_signature(i, a)):
        with pytest.raises(SingularMatrixError, match=re.escape(text) + "$"):
            call(z)


def test_order_and_signature_build_no_canonical_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("built the block-diagonal canonical form")

    monkeypatch.setattr(importlib.import_module("orbitcodes.rcf"), "rcf_from_divisors", forbidden)
    a = block_diag([GEN3, companion(Poly(F2, [1, 1, 1, 1, 1]))])
    assert matrix_order(a) == 35
    assert signature(a) == ((5, 1, 4), (7, 1, 3))
    assert same_signature(a, block_diag([companion(Poly(F2, [1, 0, 1, 1])), companion(Poly(F2, [1, 1, 1, 1, 1]))]))


def test_order_scan_skips_the_irreducibility_retest(monkeypatch):
    # the scan's candidates come from irreducibles(), irreducible by construction
    def forbidden(f):
        raise AssertionError(f"re-tested the enumerated irreducible {f!r}")

    for d in range(1, 7):
        irreducibles(F2, d)
    monkeypatch.setattr(poly, "is_irreducible", forbidden)
    poly.order.cache_clear()
    found = groups._smallest_of_each_order(F2, 6)
    assert sorted(found) == [9, 21, 63]
    for o, p in found.items():
        assert brute_force_poly_order(p) == o


def full_scan_smallest(field, d):
    """{o: the first irreducible of degree d and order o in code order}, by
    reading every irreducible: the scan the direct route shortens."""
    found = {}
    for p in irreducibles(field, d):
        if p.coeff(0):
            found.setdefault(poly._irreducible_order(p), p)
    return found


@pytest.mark.parametrize(
    "field, top",
    [
        (F2, 16),
        (F3, 8),
        (GF(2, 2), 6),
        (GF(5), 4),
        (GF(2, 3), 4),
        (GF(7), 3),
        (GF(3, 2, modulus=(2, 2, 1)), 3),
    ],
)
def test_smallest_of_each_order_matches_the_full_scan(field, top):
    for d in range(1, top + 1):
        got = groups._smallest_of_each_order(field, d)
        assert got == full_scan_smallest(field, d)
        assert sorted(got) == groups._orders_of_degree(field.q, d)


def test_minimal_polynomial_is_the_char_poly_of_a_companion_power():
    rng = random.Random(23)
    for field, d in ((F2, 6), (F3, 4), (GF(2, 2), 3), (GF(5), 2), (GF(7), 1)):
        primitive = next(
            p for p in irreducibles(field, d)
            if p.coeff(0) and poly._irreducible_order(p) == field.q**d - 1
        )
        c = companion(primitive)
        for k in [0, 1, field.q**d - 2] + [rng.randrange(field.q**d) for _ in range(6)]:
            assert groups._minimal_polynomial(primitive, k) == char_poly(c**k)


def test_directly_built_orders_have_their_order(monkeypatch):
    built = []
    minimal_polynomial = groups._minimal_polynomial

    def recording(primitive, k):
        f = minimal_polynomial(primitive, k)
        built.append((primitive, k, f))
        return f

    monkeypatch.setattr(groups, "_minimal_polynomial", recording)
    for field, top in ((F2, 12), (F3, 6), (GF(2, 2), 5), (GF(5), 3), (GF(7), 2)):
        for d in range(1, top + 1):
            start = len(built)
            found = groups._smallest_of_each_order(field, d)
            full = field.q**d - 1
            for primitive, k, f in built[start:]:
                assert primitive == found[full]
                o = full // math.gcd(k, full)
                assert int(f.degree) == d and brute_force_poly_order(f) == o
                assert found[o].code() <= f.code()
    # among them GF(2) d=10 builds orders 11 and 33, and d=12 eight orders
    assert len(built) > 20


def test_order_scan_stops_before_the_last_irreducible(monkeypatch):
    # order 13 has one irreducible of degree 12 over GF(2), the last in code
    # order, so a scan that waits for every order reads all 335; the built
    # orders, like the scanned ones, are never tested for irreducibility
    calls = []
    counted = groups._irreducible_order

    def counting(p):
        calls.append(p)
        return counted(p)

    def forbidden(f):
        raise AssertionError(f"re-tested the irreducibility of {f!r}")

    monkeypatch.setattr(groups, "_irreducible_order", counting)
    monkeypatch.setattr(poly, "is_irreducible", forbidden)
    assert len(irreducibles(F2, 12)) == 335
    found = groups._smallest_of_each_order(F2, 12)
    assert found[13] == Poly(F2, [1] * 13)
    assert 0 < len(calls) < 335


def test_cyclic_group_elements():
    g = CyclicGroup(GEN3)
    assert g.order == len(g) == 7


def test_cyclic_group_order_two():
    g = CyclicGroup(companion(Poly(F2, [1, 0, 1])))  # (x+1)^2
    assert g.order == 2


def test_signature_identity():
    sig = signature(Mat.identity(F2, 2))
    assert sig == ((1, 1, 1), (1, 1, 1))


def test_signature_order_seven():
    assert signature(GEN3) == ((7, 1, 3),)
    assert signature(companion(Poly(F2, [1, 0, 1, 1]))) == ((7, 1, 3),)


def test_signature_equality_ignores_degree_field():
    a = signature_of_divisors(F2, [(Poly(F2, [1, 1, 0, 1]), 1)])
    b = signature_of_divisors(F2, [(Poly(F2, [1, 0, 1, 1]), 1)])
    assert a == b == ((7, 1, 3),)
    assert hash(a) == hash(b)
    # the degree is redundant, ord_7(2) = 3, so any other degree is rejected
    with pytest.raises(AssertionError, match="degree 2 does not match the order of 2 modulo 7"):
        groups._signature([(7, 1, 2)], 2)


def test_witness_reflexive():
    assert conjugacy_witness(GEN3, GEN3) == 1
    assert conjugacy_witness(Mat.identity(F2, 2), Mat.identity(F2, 2)) == 1


def test_witness_between_order_seven_generators():
    other = companion(Poly(F2, [1, 0, 1, 1]))
    w = conjugacy_witness(GEN3, other)
    assert w is not None and math.gcd(w, 7) == 1
    # scan confirms the smallest witness
    from orbitcodes import are_conjugate

    smallest = next(
        i for i in range(1, 8) if math.gcd(i, 7) == 1 and are_conjugate(GEN3, other**i)
    )
    assert w == smallest


def test_witness_none_when_orders_differ():
    assert conjugacy_witness(Mat.identity(F2, 2), companion(Poly(F2, [1, 1, 1]))) is None


def test_same_signature_examples():
    assert same_signature(GEN3, companion(Poly(F2, [1, 0, 1, 1])))
    assert not same_signature(Mat.identity(F2, 2), companion(Poly(F2, [1, 0, 1])))


def test_same_signature_for_conjugate_pair_over_gf4():
    f4 = GF(2, 2)
    b1 = Mat.from_rows(f4, [[0, 1, 0], [0, 0, 1], [1, 0, 1]])
    b2 = Mat.from_rows(f4, [[3, 1, 2], [2, 2, 3], [0, 1, 0]])
    assert same_signature(b1, b2)


def test_class_representatives_dimension_one():
    reps = class_representatives(F2, 1)
    assert len(reps) == 1
    assert reps[0].order == 1


def test_class_representatives_dimension_two():
    reps = class_representatives(F2, 2)
    assert sorted(r.order for r in reps) == [1, 2, 3]
    divisors = {tuple((str(p), e) for p, e in r.divisors) for r in reps}
    assert (("x + 1", 1), ("x + 1", 1)) in divisors
    assert (("x + 1", 2),) in divisors
    assert (("x^2 + x + 1", 1),) in divisors


def test_class_representatives_merge_equal_signatures():
    reps = class_representatives(F2, 3)
    order7 = [r for r in reps if r.order == 7]
    # both degree-3 irreducibles of order 7 land in a single cell
    assert len(order7) == 1
    assert order7[0].divisors == ((Poly(F2, [1, 1, 0, 1]), 1),)


def test_class_representatives_match_brute_force_partition():
    reps = class_representatives(F2, 2)
    classes = brute_force_cyclic_classes(F2, 2)
    assert len(reps) == len(classes) == 3
    hits = []
    for rep in reps:
        subgroup = closure([companion_diag(rep.divisors)]).elements
        (cell,) = [i for i, c in enumerate(classes) if subgroup in c]
        hits.append(cell)
    assert sorted(hits) == [0, 1, 2]


@pytest.mark.parametrize(
    "field, n",
    [
        (F2, 2),
        (F2, 3),
        (F3, 2),
        pytest.param(
            GF(2, 2), 2,
            marks=pytest.mark.xfail(
                strict=True,
                reason="classify lists signature cells, not classes: diag(w, w^2) and "
                "wI share one over GF(4) (ROADMAP item 1); 7 listed against 8",
            ),
        ),
    ],
)
def test_class_count_matches_brute_force(field, n):
    # the multiset oracle partitions by signature too, so only the
    # first-principles partition can see a cell holding two classes
    assert len(class_representatives(field, n)) == len(brute_force_cyclic_classes(field, n))


def multiset_class_representatives(field, n):
    """The classes by brute force: every multiset of (irreducible p != x,
    e >= 1) with total degree n, partitioned by signature, each cell's
    representative its least member, each order the lcm of ord(p^e) found
    by search.  The oracle for the cell enumeration."""
    atoms = []
    for d in range(1, n + 1):
        for p in irreducibles(field, d):
            if p != Poly.x(field):
                atoms.extend((p, e) for e in range(1, n // d + 1))

    def extend(start, remaining, chosen):
        if remaining == 0:
            yield tuple(sorted(chosen, key=divisor_key))
            return
        for idx in range(start, len(atoms)):
            p, e = atoms[idx]
            if int(p.degree) * e <= remaining:
                yield from extend(idx, remaining - int(p.degree) * e, chosen + [(p, e)])

    cells = {}
    for divisors in extend(0, n, []):
        cells.setdefault(signature_of_divisors(field, divisors), []).append(divisors)
    reps = []
    for sig, members in cells.items():
        best = min(members, key=lambda ds: tuple(divisor_key(d) for d in ds))
        order = math.lcm(*(brute_force_poly_order(p**e) for p, e in best))
        reps.append((best, sig, order))
    reps.sort(key=lambda r: tuple(divisor_key(d) for d in r[0]))
    return reps


@pytest.mark.parametrize(
    "field, top",
    [
        (F2, 8), (F3, 5), (GF(2, 2), 4), (GF(5), 3), (GF(3, 2, modulus=(2, 2, 1)), 3),
        (GF(7), 3), (GF(2, 3), 3), (GF(11), 2),
    ],
)
def test_class_representatives_match_multiset_oracle(field, top):
    for n in range(1, top + 1):
        got = class_representatives(field, n)
        want = multiset_class_representatives(field, n)
        assert len(got) == len(want)
        for rep, (divisors, sig, order) in zip(got, want):
            assert rep.divisors == divisors
            assert rep.signature == sig
            assert rep.order == order
            assert companion_diag(rep.divisors) == companion_diag(divisors)


def test_smallest_slot_never_raises_the_sorted_key():
    """A smaller element in one slot never raises the sorted divisor_key
    tuple: the lemma behind each cell's representative."""
    rng = random.Random(12)
    for field in (F2, F3, GF(2, 2)):
        pool = [(p, e) for d in (1, 2, 3) for p in irreducibles(field, d) for e in (1, 2)]
        for _ in range(300):
            members = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            slot = rng.randrange(len(members))
            p, e = members[slot]
            smaller = [q for q in irreducibles(field, int(p.degree)) if q.code() < p.code()]
            if not smaller:
                continue
            moved = list(members)
            moved[slot] = (rng.choice(smaller), e)
            before = sorted(divisor_key(d) for d in members)
            after = sorted(divisor_key(d) for d in moved)
            assert after <= before
            assert all(a <= b for a, b in zip(after, before))


def test_divisors_order_closed_form_matches_search():
    for field in (F2, F3, GF(2, 2)):
        for d in (1, 2, 3):
            for p in irreducibles(field, d):
                if p.coeff(0):
                    for e in range(1, 5):
                        assert divisors_order([(p, e)]) == brute_force_poly_order(p**e)


def test_closure_of_identity():
    g = closure([Mat.identity(F2, 2)])
    assert g.order == 1


def test_closure_generates_full_linear_group():
    g = closure([GEN3, GEN3.transpose()])
    assert g.order == 168
    assert Mat.identity(F2, 3) in g.elements
    assert len(g.elements) == g.order


def test_closure_is_closed_under_products():
    g = closure([companion(Poly(F3, [1, 1])), Mat.from_rows(F3, [[2]])])
    elems = list(g.elements)
    for a in elems:
        for b in elems:
            assert a * b in g.elements


def test_closure_rejects_singular_generator():
    with pytest.raises(SingularMatrixError):
        closure([Mat.zeros(F2, 2, 2)])


class OracleSizeError(RuntimeError):
    """The breadth-first oracle met more elements than its bound."""


def mat_closure(gens):
    """Breadth-first closure by Mat multiplication: the closure's oracle.
    It lists every element, so it stops past 10^6 of them."""
    frontier = [Mat.identity(gens[0].field, gens[0].rows)]
    seen = set(frontier)
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = m * g
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > 10**6:
                        raise OracleSizeError("more than 10^6 elements")
                    new.append(prod)
        frontier = new
    return frozenset(seen)


F4 = GF(2, 2)
F5 = GF(5)
# over GF(5), q^6 = 15625 rows: a 6-cycle and diag(4, 1, ..., 1) give 384 elements
CYCLE6 = Mat.from_rows(F5, [[int(j == (i + 1) % 6) for j in range(6)] for i in range(6)])
DIAG6 = Mat.from_rows(F5, [[(4 if i == 0 else 1) * (i == j) for j in range(6)] for i in range(6)])
CLOSURE_PAIRS = [
    [GEN3, GEN3.transpose()],
    [companion(Poly(F3, [1, 0, 1])), Mat.from_rows(F3, [[2, 0], [0, 1]])],
    [
        Mat.from_rows(F4, [[0, 1, 0], [0, 0, 1], [1, 1, 0]]),
        Mat.from_rows(F4, [[0, 1, 0], [0, 0, 1], [1, 0, 1]]),
    ],
    [CYCLE6, DIAG6],
]


def test_closure_of_one_generator_is_its_cyclic_group():
    for a, _ in CLOSURE_PAIRS:
        g = closure([a])
        assert g.elements == frozenset(a**i for i in range(matrix_order(a)))
        assert g.order == matrix_order(a)


def test_closure_matches_mat_multiply_oracle():
    rng = random.Random(4)
    pairs = list(CLOSURE_PAIRS)
    for field, n in ((F2, 3), (F3, 2), (F4, 2)) * 4:
        pairs.append([rand_invertible(rng, field, n) for _ in range(2)])
    for gens in pairs:
        g = closure(gens)
        assert g.elements == mat_closure(gens)
        assert g.order == len(g.elements)
    assert closure([CYCLE6, DIAG6]).order == 384
    # a generator that is a power of another adds nothing: {I, A, A^2}
    a = companion(Poly(F2, [1, 1, 1]))
    assert closure([a, a * a]).order == 3


def test_chain_matches_mat_closure_oracle():
    # random sets of 1-3 generators, about half replaced by a small power so
    # that proper subgroups turn up next to the full linear groups
    sizes = [(F2, n) for n in (1, 2, 3, 4)] + [(F3, n) for n in (1, 2, 3)]
    sizes += [(F4, 1), (F4, 2), (F5, 2)]
    rng = random.Random(18)
    full = proper = 0
    for trial in range(30):
        field, n = sizes[trial % len(sizes)]
        gens = [rand_invertible(rng, field, n) for _ in range(rng.randint(1, 3))]
        gens = [g ** rng.randint(2, 4) if rng.random() < 0.5 else g for g in gens]
        want = mat_closure(gens)
        g = closure(gens)
        assert g.order == len(want)
        assert g.elements == want
        if n > 1:
            full += g.order == gl_order(field.q, n)
            proper += 1 < g.order < gl_order(field.q, n)
    assert full >= 3 and proper >= 10


def test_closure_of_size_zero_and_one_matrices():
    g = closure([Mat.identity(F2, 0)])
    assert g.order == 1
    assert g.elements == {Mat.identity(F2, 0)}
    g = closure([Mat.from_rows(F5, [[2]])])
    assert g.order == 4
    assert g.elements == {Mat.from_rows(F5, [[x]]) for x in (1, 2, 3, 4)}


def primitive_companion(field, n):
    q = field.q
    return next(
        companion(p)
        for p in irreducibles(field, n)
        if p.coeff(0) and divisors_order([(p, 1)]) == q**n - 1
    )


def gl_order(q, n):
    return math.prod(q**n - q**i for i in range(n))


def test_closure_order_of_full_linear_groups_no_listing_could_reach():
    # <A, A^t> is GL_n(F_q) for a primitive companion A; GL_6(F_2) has
    # 2.0e10 elements, so only the chain's orbits can be formed
    for field, n in ((F2, 5), (F2, 6), (F3, 4)):
        a = primitive_companion(field, n)
        assert closure([a, a.transpose()]).order == gl_order(field.q, n)


def test_closure_returns_a_large_group_without_listing_it(monkeypatch):
    def forbidden(self):
        raise AssertionError("listed the elements of the group")

    monkeypatch.setattr(groups.GeneratedGroup, "elements", property(forbidden))
    a = primitive_companion(F2, 6)
    assert closure([a, a.transpose()]).order == gl_order(2, 6) == 20158709760


def test_closure_checks_generators_on_packed_rows(monkeypatch):
    def forbidden(*args):
        raise AssertionError("rref ran on a generator")

    orders = [len(mat_closure(gens)) for gens in CLOSURE_PAIRS]
    monkeypatch.setattr(matrix, "rref", forbidden)
    assert [closure(gens).order for gens in CLOSURE_PAIRS] == orders
    with pytest.raises(SingularMatrixError, match="generators must be invertible"):
        closure([Mat.zeros(F2, 2, 2)])


def test_order_lcm_random_agrees_with_brute_force():
    rng = random.Random(9)
    for _ in range(40):
        field = rng.choice((F2, F3))
        a = rand_invertible(rng, field, rng.randint(1, 4))
        assert matrix_order(a) == brute_force_order(a)


@pytest.mark.parametrize(
    "field, top", [(F2, 7), (F3, 5), (GF(2, 2), 4), (GF(5), 3), (GF(3, 2), 3)], ids=repr
)
def test_packed_matrix_order_matches_repeated_multiplication(field, top):
    rng = random.Random(field.q)
    for _ in range(12):
        a = rand_invertible(rng, field, rng.randint(1, top))
        assert matrix_order(a) == brute_force_order(a), a


def test_an_order_one_too_large_fails_the_packed_check(monkeypatch):
    rng = random.Random(4)
    for field in (F2, F3, GF(2, 2), GF(3, 2)):
        a = rand_invertible(rng, field, 4)
        while a.is_identity():
            a = rand_invertible(rng, field, 4)
        true_order = matrix_order(a)
        with monkeypatch.context() as m:
            m.setattr(groups, "_factored_order", lambda divs, n=true_order: n + 1)
            with pytest.raises(AssertionError, match=re.escape("failed the A^N = I check")):
                matrix_order(a)


def live_kernels_and_row_memo_entries():
    gc.collect()
    kernels = [o for o in gc.get_objects() if isinstance(o, (rows._Bits, rows._Lanes))]
    memos = [k._bits if isinstance(k, rows._Bits) else k.multiples for k in kernels]
    memos += [k._row_codes for k in kernels if isinstance(k, rows._Lanes)]
    return len(kernels), sum(map(len, memos))


def test_divisors_and_orders_need_no_mat_arithmetic(monkeypatch):
    # 2000 distinct matrices, singular ones among them
    rng = random.Random(12)
    fields = (F2, F3, GF(2, 2))
    seen = set()
    while len(seen) < 2000:
        field = fields[len(seen) % 3]
        n = rng.randint(1, 6)
        seen.add(Mat(field, n, n, [rng.randrange(field.q) for _ in range(n * n)]))
    mats = sorted(seen, key=lambda a: (a.field.q, a.rows, a.entries))
    rng.shuffle(mats)
    invertible = {a: is_invertible(a) for a in mats}
    checked = {
        a: (elementary_divisors(a), brute_force_order(a) if invertible[a] else None)
        for a in mats[:60]
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("Mat arithmetic or rref ran")

    monkeypatch.setattr(Mat, "__mul__", forbidden)
    monkeypatch.setattr(Mat, "__pow__", forbidden)
    modules = [m for name, m in sys.modules.items() if name.startswith("orbitcodes")]
    for module in [m for m in modules if getattr(m, "rref", None) is matrix.rref]:
        monkeypatch.setattr(module, "rref", forbidden)
    elementary_divisors.cache_clear()
    before = live_kernels_and_row_memo_entries()
    for a in mats:
        divisors = elementary_divisors(a)
        order = matrix_order(a) if invertible[a] else None
        if a in checked:
            assert (divisors, order) == checked[a], a
    # the memos keyed by rows went with their kernels; the shared field
    # tables are keyed by scalars, at most q entries each
    after = live_kernels_and_row_memo_entries()
    assert after[0] <= before[0] and after[1] <= before[1]
    info = rows._lane_tables.cache_info()
    assert info.currsize <= info.maxsize
    for field in fields[1:]:
        for n in range(1, 7):
            t = rows._lane_tables(field, n)
            memos = [t.lanes, t.codes, t.neg, t.inv, t.mul, *t.mul.values()]
            assert max(map(len, memos)) <= field.q


def test_order_scan_factorizes_each_unit_group_once(monkeypatch):
    field = GF(5)
    irreducibles(field, 3)
    expected = groups._smallest_of_each_order(field, 3)
    numtheory.unit_group_factors.cache_clear()
    factorized, orders = [], []
    factorize = numtheory.factorize
    monkeypatch.setattr(numtheory, "factorize", lambda n: factorized.append(n) or factorize(n))
    order_of_x = polykernel._Residues.order_of_x
    monkeypatch.setattr(
        polykernel._Residues, "order_of_x", lambda self: orders.append(1) or order_of_x(self)
    )
    assert groups._smallest_of_each_order(field, 3) == expected
    assert len(orders) > 1  # a scan of several irreducibles, factorized once
    # q^d - 1 once for the orders of the degree and every order_of_x; the
    # other calls are the totients of the orders below q^d - 1
    assert factorized.count(5**3 - 1) == 1
    assert all((5**3 - 1) % n == 0 for n in factorized)
