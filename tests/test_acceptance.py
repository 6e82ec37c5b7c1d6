"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime against the stated budget."""

import math
import random
import time

from orbitcodes import (
    GF,
    Mat,
    Poly,
    block_bound,
    block_bound_refined,
    block_structure,
    closure,
    class_representatives,
    companion,
    companion_diag,
    conjugate_code,
    distance_distribution,
    matrix_order,
    min_distance,
    orbit_code,
    rcf,
    signature,
    stabilizer_order,
    subspace,
)
from orbitcodes.sampling import (
    random_block_diag_basis,
    random_invertible,
    random_subspace,
    random_unit_divisors,
)
from orbitcodes.verify import (
    SuiteResult,
    _blockdiag_instance,
    _fullrank_instance,
    brute_force_cyclic_classes,
    brute_force_order,
    check_oracle_agreement,
)

F2 = GF(2)
F3 = GF(3)


class timer:
    def __init__(self, number, description, limit):
        self.number = number
        self.description = description
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(
            f"ACCEPTANCE {self.number:02d} {self.description}: "
            f"{status} ({elapsed:.2f}s, budget {self.limit}s)"
        )
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"


def test_criterion_01_order_seven_generator_and_transpose_closure():
    with timer(1, "order-7 generator and transpose closure", 1.0):
        a = companion(Poly(F2, [1, 1, 0, 1]))
        assert a.to_lists() == [[0, 1, 0], [0, 0, 1], [1, 1, 0]]
        assert matrix_order(a) == 7
        pair = closure([a, a.transpose()])
        product_formula = 1
        for i in range(3):
            product_formula *= 2**3 - 2**i
        assert pair.order == product_formula == 168
        assert matrix_order(a) != pair.order  # cardinality denies conjugacy


def test_criterion_02_gf4_conjugate_matrices_inequivalent_pairs():
    with timer(2, "GF(4) conjugate matrices, inequivalent pairs", 5.0):
        f4 = GF(2, 2)
        assert f4.modulus == (1, 1, 1)
        a = Mat.from_rows(f4, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
        b1 = Mat.from_rows(f4, [[0, 1, 0], [0, 0, 1], [1, 0, 1]])
        b2 = Mat.from_rows(f4, [[3, 1, 2], [2, 2, 3], [0, 1, 0]])
        assert rcf(b1) == rcf(b2)
        g1 = closure([a, b1])
        g2 = closure([a, b2])
        assert g1.order != g2.order


def test_criterion_03_classification_oracle_equivalence():
    with timer(3, "signature test agrees with the witness oracle", 60.0):
        res = SuiteResult("acceptance")
        rng = random.Random(0)
        for field, n in ((F2, 1), (F2, 2), (F2, 3), (F3, 1), (F3, 2), (F3, 3)):
            check_oracle_agreement(res, field, n, rng)
        check_oracle_agreement(res, F2, 4, rng, pair_sample=12, conjugates=3)
        disagreements = [f for f in res.findings if f.level == "FAIL"]
        assert not disagreements, "\n".join(str(f) for f in disagreements)

        reps = class_representatives(F2, 2)
        classes = brute_force_cyclic_classes(F2, 2)
        assert len(reps) == 3 and len(classes) == 3
        cells = []
        for rep in reps:
            subgroup = closure([companion_diag(rep.divisors)]).elements
            (cell,) = [i for i, c in enumerate(classes) if subgroup in c]
            cells.append(cell)
        assert sorted(cells) == [0, 1, 2]


def test_criterion_04_order_equals_lcm_of_divisor_orders():
    with timer(4, "matrix order equals lcm of divisor orders", 30.0):
        rng = random.Random(0)
        for _ in range(200):
            field = rng.choice((F2, F3))
            a = random_invertible(rng, field, rng.randint(1, 5))
            assert matrix_order(a) == brute_force_order(a)


def test_criterion_05_coprime_powers_keep_the_signature():
    with timer(5, "coprime powers keep the signature", 60.0):
        rng = random.Random(0)
        for _ in range(50):
            field = rng.choice((F2, F3))
            a = random_invertible(rng, field, rng.randint(1, 4))
            sig = signature(a)
            n_a = matrix_order(a)
            for i in range(1, n_a + 1):
                if math.gcd(i, n_a) == 1:
                    assert signature(a**i) == sig


def test_criterion_06_orbit_stabilizer_and_distribution_identities():
    with timer(6, "orbit-stabilizer and distribution identities", 120.0):
        rng = random.Random(0)
        for _ in range(100):
            field = rng.choice((F2, F3))
            n = rng.randint(2, 6)
            generator = random_invertible(rng, field, n)
            base = random_subspace(rng, field, n, rng.randint(1, n))
            code = orbit_code(base, generator)
            assert len(code) * code.stab_order == matrix_order(generator)
            assert stabilizer_order(base, generator) == code.stab_order
            dist = distance_distribution(code)  # raises unless every raw
            # count is divisible by the stabilizer order
            assert dist[0] == 1
            assert sum(dist) == len(code)


def test_criterion_07_singer_line_code_parameters():
    with timer(7, "7-line orbit code parameters", 1.0):
        code = orbit_code(
            subspace(Mat.from_rows(F2, [[1, 0, 0]])),
            companion(Poly(F2, [1, 1, 0, 1])),
        )
        assert len(code) == 7
        assert min_distance(code) == 2
        assert distance_distribution(code) == (1, 6)


def test_criterion_08_conjugate_codes_share_parameters():
    with timer(8, "conjugate codes share parameters", 120.0):
        rng = random.Random(0)
        for _ in range(50):
            field = rng.choice((F2, F3))
            n = rng.randint(2, 5)
            generator = random_invertible(rng, field, n)
            base = random_subspace(rng, field, n, rng.randint(1, n))
            code = orbit_code(base, generator)
            mover = random_invertible(rng, field, n)
            other = conjugate_code(code, mover)  # internally asserts equality
            assert len(other) == len(code)
            assert distance_distribution(other) == distance_distribution(code)


def test_criterion_09_bound_harness():
    with timer(9, "block bounds against brute force", 300.0):
        rng = random.Random(0)
        literal_flags = []
        for idx in range(100):
            block_diagonal = idx % 2 == 0
            n = rng.randint(2, 8)
            divisors = random_unit_divisors(rng, F2, n)
            if block_diagonal:
                basis, _ = random_block_diag_basis(rng, F2, divisors)
                base = subspace(basis)
            else:
                base = random_subspace(rng, F2, n, rng.randint(1, n - 1) if n > 1 else 1)
            bs = block_structure(base, divisors)
            literal, _ = block_bound(bs)
            refined = block_bound_refined(bs)
            code = orbit_code(base, companion_diag(bs.divisors))
            if len(code) < 2:
                continue
            brute = min_distance(code)
            if block_diagonal:
                assert brute == refined, (idx, brute, refined, divisors, base)
            else:
                assert brute >= refined, (idx, brute, refined, divisors, base)
            literal_flags.append((idx, literal, brute, literal <= brute))

        # the documented 3+2 separation, reproduced: per-component bound 4,
        # true distance 2 (this is the WARN case the verify suite logs)
        divisors = ((Poly(F2, [1, 1, 0, 1]), 1), (Poly(F2, [1, 1, 1]), 1))
        base = subspace(Mat.from_rows(F2, [[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]]))
        bs = block_structure(base, divisors)
        literal, lcm_card = block_bound(bs)
        refined = block_bound_refined(bs)
        brute = min_distance(orbit_code(base, companion_diag(bs.divisors)))
        assert (literal, refined, brute, lcm_card) == (4, 2, 2, 21)
        invalid = [entry for entry in literal_flags if not entry[3]]
        print(
            f"  literal-bound validity flags: {len(literal_flags)} logged, "
            f"{len(invalid)} invalid; separation instance literal={literal} brute={brute}"
        )


def test_criterion_10_coprime_equality_checks():
    with timer(10, "coprime component equality checks", 120.0):
        for maker, label in (
            (_fullrank_instance, "fullrank"),
            (_blockdiag_instance, "blockdiag"),
        ):
            rng = random.Random(0)
            qualifying = 0
            attempts = 0
            while qualifying < 20 and attempts < 600:
                attempts += 1
                report = maker(rng, F2)
                if report.skipped:
                    continue
                qualifying += 1
                assert report.ok, (label, report.values, report.instance)
            assert qualifying >= 20, f"{label}: only {qualifying} instances"
