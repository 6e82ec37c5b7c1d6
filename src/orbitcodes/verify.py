"""Property suites with independent oracles.

Each suite re-derives its expected values by brute force (repeated
multiplication for orders, Mat/rref stabilizer scans, first-principles
subgroup partitions) and checks the library against them; the block bounds,
read from the component profiles, against the whole code's profile, which a
multi-block structure walks while its components may take the difference
count; minimal polynomials by annihilation and minimality through rcf's
p(A) evaluator: mu(A) = 0 and (mu/p)(A) != 0 for each irreducible p of
factor(mu); elementary divisors by their product (chi) and by the kernel
ranks of p(A)^j.  Suites
return a SuiteResult carrying FAIL findings (hard errors: proven statements
that must hold) and WARN findings (documented ambiguities: the per-component
bound overshooting the true distance, code sizes differing from the lcm of
component sizes, and one known signature-test disagreement in dimension 6).

The equality checks under coprime component sizes (fullrank_coprime_check,
blockdiag_coprime_check) live here too, with their CheckReport and its
text instance; they read the profiles codes computes, and the bounds
suite runs them.

`trials` scales the sampled checks: None runs the default counts, 0 skips
everything (a vacuous run), a positive value replaces the defaults, and a
negative one is rejected with ValueError.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .codes import (
    Subspace,
    _block_starts,
    _columns,
    _divisors,
    act,
    block_bound,
    block_bound_refined,
    block_structure,
    conjugate_code,
    distance_distribution,
    orbit_code,
    orbit_profile,
    stabilizer_order,
    subspace,
    subspace_distance,
)
from .field import GF, _Memo
from .groups import class_representatives, closure, conjugacy_witness, matrix_order, signature
from .matrix import Mat, block_diag_basis, companion_diag, is_invertible, rank, rref
from .numtheory import factorize, multiplicative_order
from .poly import Poly, factor, irreducibles, is_irreducible, order as poly_order
from .rcf import char_poly, elementary_divisors, evaluate_poly_at_matrix, min_poly, rcf
from .sampling import (
    random_block_diag_basis,
    random_full_rank,
    random_invertible,
    random_matrix,
    random_monic,
    random_subspace,
    random_unit_divisors,
)
from .textio import format_mat, format_poly

SUITES = ("algebra", "rcf", "groups", "codes", "bounds")


@dataclass(frozen=True)
class Finding:
    level: str  # "FAIL" | "WARN"
    suite: str
    name: str
    message: str

    def __str__(self) -> str:
        return f"{self.level} [{self.suite}/{self.name}] {self.message}"


@dataclass
class SuiteResult:
    suite: str
    checks: int = 0
    findings: list[Finding] = dc_field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(f.level == "FAIL" for f in self.findings)

    def check(self, name: str, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.findings.append(Finding("FAIL", self.suite, name, message))

    def warn(self, name: str, message: str) -> None:
        self.findings.append(Finding("WARN", self.suite, name, message))


def _count(trials: int | None, default: int) -> int:
    return default if trials is None else trials


def _mobius(n: int) -> int:
    exps = factorize(n).values() if n > 1 else {}
    if any(e > 1 for e in exps):
        return 0
    return -1 if len(exps) % 2 else 1


def brute_force_order(a: Mat) -> int:
    """Order by repeated multiplication, giving up past 100 000; the oracle
    matrix_order is tested against."""
    ident = Mat.identity(a.field, a.rows)
    power = a
    e = 1
    while power != ident:
        power = power * a
        e += 1
        if e > 100_000:
            raise RuntimeError("brute-force order exceeded cap")
    return e


def brute_force_poly_order(f: Poly) -> int:
    """Least e >= 1 with x^e = 1 (mod f), f(0) != 0, by stepping x, x^2, ...
    up to q^deg(f): the oracle poly.order is tested against."""
    x, bound = Poly.x(f.field), f.field.q ** int(f.degree)
    r, e = x % f, 1
    while r.coeffs != (1,):
        if e >= bound:
            raise RuntimeError(f"order search for {f!r} exceeded unit-group bound")
        r, e = (r * x) % f, e + 1
    return e


# ---------------------------------------------------------------------------


def suite_algebra(seed: int = 0, trials: int | None = None) -> SuiteResult:
    res = SuiteResult("algebra")
    rng = random.Random(seed)
    if trials == 0:
        return res

    # every field the suite uses, built once
    fields = {
        (p, m): GF(p, m)
        for p, m in ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                     (2, 2), (2, 3), (2, 4), (3, 2))
    }
    f2, f3, f4 = fields[2, 1], fields[3, 1], fields[2, 2]

    # field axioms, exhaustive on every constructible field with q <= 16
    for f in fields.values():
        q = f.q
        ok = True
        for a in range(q):
            if f.add(a, 0) != a or f.mul(a, 1) != a:
                ok = False
            if a and f.mul(a, f.inv(a)) != 1:
                ok = False
            for b in range(q):
                if f.add(a, b) != f.add(b, a) or f.mul(a, b) != f.mul(b, a):
                    ok = False
                for c in range(q):
                    if f.mul(f.mul(a, b), c) != f.mul(a, f.mul(b, c)):
                        ok = False
                    if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
                        ok = False
        res.check("field_axioms", ok, f"axiom failure in {f!r}")

    # irreducible counts against the necklace formula
    for f in (f2, f3, f4, fields[5, 1], fields[2, 3], fields[3, 2], fields[2, 4]):
        d = 1
        while f.q ** d <= 4096:
            got = irreducibles(f, d)
            expected = sum(_mobius(e) * f.q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
            res.check(
                "irreducible_count",
                len(got) == expected,
                f"{f!r} degree {d}: counted {len(got)}, necklace formula {expected}",
            )
            res.check(
                "irreducible_membership",
                all(is_irreducible(g) and g.degree == d and g.is_monic for g in got),
                f"{f!r} degree {d}: enumeration emitted a non-irreducible",
            )
            d += 1

    # factorization recomposes
    for _ in range(_count(trials, 500)):
        f = rng.choice((f2, f3))
        g = random_monic(rng, f, rng.randint(1, 8))
        prod = Poly.one(f)
        for p, e in factor(g):
            prod = prod * p**e
        res.check("factor_recompose", prod == g, f"factor broke {g!r}")

    # order of irreducibles divides q^d - 1; degree matches the order of q
    for f in (f2, f3, f4):
        for d in range(1, 5):
            for p in irreducibles(f, d):
                if p.coeff(0) == 0:
                    continue
                o = poly_order(p)
                res.check(
                    "order_divides",
                    (f.q**d - 1) % o == 0,
                    f"order {o} of {p!r} does not divide q^d-1",
                )
                res.check(
                    "order_degree",
                    multiplicative_order(f.q % o if o > 1 else 0, o) == d,
                    f"degree of {p!r} is not the order of q modulo {o}",
                )

    # prime-power order formula against the incremental search
    for f in (f2, f3):
        for d in range(1, 4):
            for p in irreducibles(f, d):
                if p.coeff(0) == 0:
                    continue
                for e in range(2, 5):
                    res.check(
                        "order_prime_power",
                        poly_order(p**e) == brute_force_poly_order(p**e),
                        f"order of {p!r}^{e} is not ord(p)*charpower",
                    )
    return res


def _kernel_ranks_match(a: Mat, chi: Poly, divisors) -> bool:
    """rank p(A)^j = n - deg p * sum of min(e, j) over the divisors p^e, for
    each irreducible p of chi with multiplicity m and j = 1..m: a split that
    keeps chi and the largest exponent (p^3, p^2 as p^3, p, p) breaks it."""
    for p, m in factor(chi):
        exponents = [e for q, e in divisors if q == p]
        base = power = evaluate_poly_at_matrix(p, a)
        for j in range(1, m + 1):
            if rank(power) != a.rows - int(p.degree) * sum(min(e, j) for e in exponents):
                return False
            power = power * base if j < m else power
    return True


def suite_rcf(seed: int = 0, trials: int | None = None) -> SuiteResult:
    res = SuiteResult("rcf")
    rng = random.Random(seed)
    if trials == 0:
        return res
    f2, f3, f4 = GF(2), GF(3), GF(2, 2)

    for _ in range(_count(trials, 200)):
        f = rng.choice((f2, f3, f4))
        m = random_matrix(rng, f, rng.randint(1, 6), rng.randint(1, 8))
        once = rref(m).matrix
        res.check("rref_idempotent", rref(once).matrix == once, f"rref not idempotent on {m!r}")

    for _ in range(_count(trials, 200)):
        f = rng.choice((f2, f3))
        n = rng.randint(1, 5)
        a = random_invertible(rng, f, n)
        divisors = rcf(a)
        for _ in range(5):
            l = random_invertible(rng, f, n)
            conj = l.inverse() * a * l
            res.check(
                "conjugate_same_rcf",
                rcf(conj) == divisors,
                f"conjugation changed the canonical form of {a!r}",
            )
        chi = char_poly(a)
        mu = min_poly(a)
        res.check(
            "char_of_rcf", char_poly(companion_diag(divisors)) == chi, f"char mismatch {a!r}"
        )
        res.check("min_divides_char", (chi % mu).is_zero, f"min does not divide char {a!r}")
        zero = Mat.zeros(f, n, n)
        res.check(
            "cayley_hamilton",
            evaluate_poly_at_matrix(chi, a) == zero,
            f"Cayley-Hamilton failed for {a!r}",
        )
        prod = Poly.one(f)
        for p, e in divisors:
            prod = prod * p**e
        ok = prod == chi and _kernel_ranks_match(a, chi, divisors)
        res.check("divisors_product_char", ok, f"divisor product or ranks wrong for {a!r}")
        # mu(A) = 0 and (mu / p)(A) != 0, with each p from factor(mu), not
        # from the divisors mu was assembled from
        res.check(
            "min_poly_minimal",
            evaluate_poly_at_matrix(mu, a) == zero
            and all(evaluate_poly_at_matrix(mu // p, a) != zero for p, _ in factor(mu)),
            f"min is not the least annihilator of {a!r}",
        )

    # invertibility matches the absence of x among elementary divisors
    x = {f: Poly.x(f) for f in (f2, f3)}
    for _ in range(_count(trials, 200)):
        f = rng.choice((f2, f3))
        n = rng.randint(1, 4)
        a = random_matrix(rng, f, n, n)
        has_x = any(p == x[f] for p, _ in elementary_divisors(a))
        res.check(
            "singular_iff_x_divisor",
            is_invertible(a) == (not has_x),
            f"x-divisor test disagrees with invertibility for {a!r}",
        )
    return res


def _known_signature_gap(field: GF) -> tuple[Mat, Mat]:
    """Equal signatures, non-conjugate groups: two order-7 blocks over GF(2)
    with distinct versus repeated irreducibles (n = 6)."""
    p1 = Poly(field, [1, 1, 0, 1])
    p2 = Poly(field, [1, 0, 1, 1])
    a = companion_diag([(p1, 1), (p2, 1)])
    b = companion_diag([(p1, 1), (p1, 1)])
    return a, b


def check_oracle_agreement(
    res: SuiteResult, field: GF, n: int, rng: random.Random,
    pair_sample: int | None = None, conjugates: int = 10,
) -> None:
    """signature test vs witness oracle on class representatives and random
    conjugates; disagreements are FAIL findings with the instance inline."""
    reps = [companion_diag(r.divisors) for r in class_representatives(field, n)]
    pairs = [(i, j) for i in range(len(reps)) for j in range(i, len(reps))]
    if pair_sample is not None and len(pairs) > pair_sample:
        pairs = rng.sample(pairs, pair_sample)
    for i, j in pairs:
        sig = signature(reps[i]) == signature(reps[j])
        wit = conjugacy_witness(reps[i], reps[j])
        res.check(
            "oracle_agreement",
            sig == (wit is not None),
            f"disagreement (q={field.q}, n={n}) reps {i},{j}: "
            f"signature={sig}, witness={wit}, A={reps[i]!r}, B={reps[j]!r}",
        )
    for i, rep in enumerate(reps):
        for _ in range(conjugates):
            l = random_invertible(rng, field, n)
            conj = l.inverse() * rep * l
            sig = signature(rep) == signature(conj)
            wit = conjugacy_witness(rep, conj)
            res.check(
                "oracle_agreement_conjugate",
                sig and wit is not None,
                f"conjugate pair rejected (q={field.q}, n={n}) rep {i}: "
                f"signature={sig}, witness={wit}, L={l!r}",
            )
            other = reps[rng.randrange(len(reps))]
            sig = signature(other) == signature(conj)
            wit = conjugacy_witness(other, conj)
            res.check(
                "oracle_agreement_cross",
                sig == (wit is not None),
                f"disagreement on conjugate cross pair (q={field.q}, n={n}): "
                f"signature={sig}, witness={wit}",
            )


def brute_force_cyclic_classes(field: GF, n: int) -> list[set[frozenset[Mat]]]:
    """Conjugacy classes of cyclic subgroups of GL_n from first principles:
    enumerate every invertible matrix, every cyclic subgroup, and every
    conjugation."""
    all_mats = [
        Mat(field, n, n, entries)
        for entries in itertools.product(range(field.q), repeat=n * n)
    ]
    units = [m for m in all_mats if is_invertible(m)]
    subgroups: set[frozenset[Mat]] = set()
    for a in units:
        powers = [Mat.identity(field, n)]
        while True:
            nxt = powers[-1] * a
            if nxt == powers[0]:
                break
            powers.append(nxt)
        subgroups.add(frozenset(powers))
    classes: list[set[frozenset[Mat]]] = []
    remaining = set(subgroups)
    while remaining:
        g = remaining.pop()
        cell = {g}
        for l in units:
            linv = l.inverse()
            conj = frozenset(linv * m * l for m in g)
            cell.add(conj)
        remaining -= cell
        classes.append(cell)
    return classes


def suite_groups(seed: int = 0, trials: int | None = None) -> SuiteResult:
    res = SuiteResult("groups")
    rng = random.Random(seed)
    if trials == 0:
        return res
    f2, f3 = GF(2), GF(3)

    # oracle vs signature test: exhaustive small ranges, sampled at n=4
    for f, n in ((f2, 1), (f2, 2), (f2, 3), (f3, 1), (f3, 2), (f3, 3)):
        check_oracle_agreement(res, f, n, rng)
    check_oracle_agreement(res, f2, 4, rng, pair_sample=12, conjugates=3)

    # group order = lcm of divisor orders, against repeated multiplication
    for _ in range(_count(trials, 200)):
        f = rng.choice((f2, f3))
        a = random_invertible(rng, f, rng.randint(1, 5))
        res.check(
            "order_lcm",
            matrix_order(a) == brute_force_order(a),
            f"order mismatch for {a!r}",
        )

    # coprime powers keep the signature
    for _ in range(_count(trials, 50)):
        f = rng.choice((f2, f3))
        a = random_invertible(rng, f, rng.randint(1, 4))
        sig = signature(a)
        n_a = matrix_order(a)
        ok = all(
            signature(a**i) == sig
            for i in range(1, n_a + 1)
            if math.gcd(i, n_a) == 1
        )
        res.check("power_signature", ok, f"a coprime power changed the signature of {a!r}")

    # class enumeration vs the first-principles partition of GL_2(F_2)
    reps = class_representatives(f2, 2)
    classes = brute_force_cyclic_classes(f2, 2)
    res.check(
        "class_count_n2",
        len(reps) == 3 and len(classes) == 3,
        f"expected 3 classes, enumerated {len(reps)}, brute force {len(classes)}",
    )
    assignment = []
    for rep in reps:
        sub = closure([companion_diag(rep.divisors)]).elements
        cells = [i for i, cell in enumerate(classes) if sub in cell]
        assignment.append(cells)
    res.check(
        "class_bijection_n2",
        sorted(c for cells in assignment for c in cells) == list(range(len(classes)))
        and all(len(c) == 1 for c in assignment),
        f"representatives do not biject with brute-force cells: {assignment}",
    )

    # documented signature-test gap at n = 6 (outside the hard ranges)
    a6, b6 = _known_signature_gap(f2)
    gap_sig = signature(a6) == signature(b6)
    gap_wit = conjugacy_witness(a6, b6)
    res.check(
        "signature_gap_documented",
        gap_sig and gap_wit is None,
        "the documented n=6 instance no longer separates the two tests",
    )
    res.warn(
        "signature_gap",
        "signature test claims conjugacy but no witness power exists for "
        "diag(companion(x^3+x+1), companion(x^3+x^2+1)) vs "
        "diag(companion(x^3+x+1), companion(x^3+x+1)) over GF(2); "
        "the witness oracle is authoritative",
    )
    return res


def suite_codes(seed: int = 0, trials: int | None = None) -> SuiteResult:
    res = SuiteResult("codes")
    rng = random.Random(seed)
    if trials == 0:
        return res
    f2, f3 = GF(2), GF(3)

    # the action does not depend on the representing matrix
    for _ in range(_count(trials, 100)):
        f = rng.choice((f2, f3))
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        u = random_subspace(rng, f, n, k)
        a = random_invertible(rng, f, n)
        mix = random_invertible(rng, f, k)
        res.check(
            "action_well_defined",
            act(subspace(mix * u.basis), a) == act(u, a),
            f"action depends on the basis choice for {u!r}",
        )

    # the action preserves subspace distance
    for _ in range(_count(trials, 200)):
        f = rng.choice((f2, f3))
        n = rng.randint(2, 5)
        u1 = random_subspace(rng, f, n, rng.randint(1, n))
        u2 = random_subspace(rng, f, n, rng.randint(1, n))
        a = random_invertible(rng, f, n)
        res.check(
            "action_distance_preserving",
            subspace_distance(act(u1, a), act(u2, a)) == subspace_distance(u1, u2),
            f"action changed a distance for {u1!r}, {u2!r}",
        )

    # orbit-stabilizer and distribution identities
    for _ in range(_count(trials, 100)):
        f = rng.choice((f2, f3))
        n = rng.randint(2, 6)
        a = random_invertible(rng, f, n)
        u = random_subspace(rng, f, n, rng.randint(1, n))
        code = orbit_code(u, a)
        res.check(
            "orbit_stabilizer",
            len(code) * code.stab_order == matrix_order(a),
            f"orbit-stabilizer identity failed for {u!r}",
        )
        res.check(
            "stabilizer_direct",
            stabilizer_order(u, a) == code.stab_order,
            f"direct stabilizer count disagrees for {u!r}",
        )
        dist = distance_distribution(code)
        res.check(
            "distribution_identities",
            dist[0] == 1 and sum(dist) == len(code),
            f"distribution identities failed: {dist}",
        )

    # conjugate codes keep cardinality and distribution
    for _ in range(_count(trials, 50)):
        f = rng.choice((f2, f3))
        n = rng.randint(2, 5)
        a = random_invertible(rng, f, n)
        u = random_subspace(rng, f, n, rng.randint(1, n))
        code = orbit_code(u, a)
        l = random_invertible(rng, f, n)
        try:
            conjugate_code(code, l)  # raises on any parameter change
            res.checks += 1
        except RuntimeError as exc:
            res.findings.append(Finding("FAIL", "codes", "conjugate_code", str(exc)))
    return res


def _separation_instance(field: GF):
    """The 3+2 block-diagonal instance whose per-component bound (4) exceeds
    the true distance (2)."""
    divisors = ((Poly(field, [1, 1, 0, 1]), 1), (Poly(field, [1, 1, 1]), 1))
    basis = Mat.from_rows(field, [[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]])
    return subspace(basis), divisors


def suite_bounds(seed: int = 0, trials: int | None = None) -> SuiteResult:
    res = SuiteResult("bounds")
    rng = random.Random(seed)
    if trials == 0:
        return res
    f2 = GF(2)

    # the documented separation instance, reproduced exactly
    u, divisors = _separation_instance(f2)
    bs = block_structure(u, divisors)
    literal, lcm_card = block_bound(bs)
    refined = block_bound_refined(bs)
    # the whole code's distance and size: the profile the refined bound read
    code = bs.profile
    distance = code.min_distance
    res.check(
        "separation_instance",
        (literal, refined, distance, lcm_card, code.period) == (4, 2, 2, 21, 21),
        f"3+2 instance changed: literal={literal} refined={refined} "
        f"brute={distance} lcm={lcm_card} |C|={code.period}",
    )
    res.warn(
        "bound_literal_invalid",
        f"3+2 separation: per-component bound {literal} exceeds the true distance {distance} "
        f"(refined bound {refined} is exact here)",
    )

    # seeded block-structured instances: exactness for block-diagonal bases,
    # validity otherwise; per-component value logged with a validity flag
    for idx in range(_count(trials, 100)):
        block_diagonal = idx % 2 == 0
        n = rng.randint(2, 8)
        divisors = random_unit_divisors(rng, f2, n)
        if block_diagonal:
            basis, _ = random_block_diag_basis(rng, f2, divisors)
            u = subspace(basis)
        else:
            u = random_subspace(rng, f2, n, rng.randint(1, n - 1) if n > 1 else 1)
        bs = block_structure(u, divisors)
        literal, lcm_card = block_bound(bs)
        refined = block_bound_refined(bs)
        code = bs.profile
        if code.period < 2:
            res.checks += 1
            continue
        distance = code.min_distance
        tag = f"instance {idx} (n={n}, divisors={[(repr(p), e) for p, e in divisors]}, basis={u!r})"
        if block_diagonal:
            res.check(
                "bound_exact_blockdiag",
                distance == refined,
                f"refined bound {refined} != brute distance {distance} on block-diagonal {tag}",
            )
        else:
            res.check(
                "bound_valid",
                distance >= refined,
                f"refined bound {refined} exceeds brute distance {distance} on {tag}",
            )
        if literal > distance:
            res.warn(
                "bound_literal_invalid",
                f"per-component bound {literal} exceeds true distance {distance} on {tag}",
            )
        if block_diagonal:
            res.check(
                "lcm_cardinality_blockdiag",
                code.period == lcm_card,
                f"|C|={code.period} differs from lcm {lcm_card} on block-diagonal {tag}",
            )
        elif code.period != lcm_card:
            res.warn(
                "lcm_cardinality",
                f"|C|={code.period} differs from lcm of component sizes {lcm_card} on {tag}",
            )

    # documented counterexample to the component-minimum equality: two
    # irreducible blocks with coprime orders and full-rank slices where the
    # whole code is strictly better than its worst component
    gap_divisors = ((Poly(f2, [1, 0, 1, 1]), 1), (Poly(f2, [1, 1, 1, 1, 1]), 1))
    gap_u = subspace(
        Mat.from_rows(f2, [[1, 0, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 1, 1]])
    )
    gap_report = fullrank_coprime_check(gap_u, gap_divisors)
    res.check(
        "fullrank_gap_documented",
        gap_report.status == "mismatch"
        and gap_report.values["code_distance"] == 4
        and gap_report.values["component_min"] == 2,
        f"the documented component-minimum counterexample changed: {gap_report}",
    )
    res.warn(
        "fullrank_equality_gap",
        "d(C) = 4 exceeds min component distance 2 on the documented instance "
        f"{gap_report.instance}; the claimed equality under coprime component "
        "cardinalities is not universal, so seeded mismatches would be real findings",
    )

    # equality checks under coprime component cardinalities
    for name, min_instances, make in (
        ("fullrank_coprime", 20, _fullrank_instance),
        ("blockdiag_coprime", 20, _blockdiag_instance),
    ):
        done = 0
        attempts = 0
        while done < min_instances and attempts < 600:
            attempts += 1
            report = make(rng, f2)
            if report.skipped:
                continue
            done += 1
            res.check(
                name,
                report.ok,
                f"{name} mismatch: values={report.values} instance={report.instance}",
            )
            if name == "blockdiag_coprime" and not report.values.get("literal_matches", True):
                res.warn(
                    "bound_literal_invalid",
                    f"per-component bound differs from brute force on {report.instance}",
                )
        res.check(
            f"{name}_instances",
            done >= min_instances,
            f"only {done} qualifying instances in {attempts} attempts",
        )
    return res


# ---------------------------------------------------------------------------
# equality checks under coprime component cardinalities


@dataclass(frozen=True)
class CheckReport:
    check: str
    status: str  # "ok" | "mismatch" | "skipped"
    reason: str | None
    values: dict
    instance: dict

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def skipped(self) -> bool:
        return self.status == "skipped"


def _field_text(f: GF) -> dict:
    d = {"p": f.p, "m": f.m}
    if f.m > 1:
        d["modulus"] = ",".join(str(c) for c in f.modulus)
    return d


def _instance_dict(field: GF, divisors, basis: Mat) -> dict:
    return {
        "field": _field_text(field),
        "divisors": [{"p": format_poly(p), "e": e} for p, e in divisors],
        "basis": format_mat(basis),
    }


def _pairwise_coprime(sizes: Sequence[int]) -> bool:
    return all(math.gcd(a, b) == 1 for a, b in itertools.combinations(sizes, 2))


def fullrank_coprime_check(
    u: Subspace, divisors: Sequence[tuple[Poly, int]]
) -> CheckReport:
    """Does the whole code's distance equal the minimum component distance?

    Applies when every full column slice U_i of the basis has full rank k
    with k <= d_i and the component-code sizes are pairwise coprime;
    instances outside those hypotheses are reported as skipped.
    """
    name = "fullrank_coprime"
    divisors = _divisors(u, divisors)
    instance = _instance_dict(u.field, divisors, u.basis)

    def skipped(reason: str) -> CheckReport:
        return CheckReport(name, "skipped", reason, {}, instance)

    degrees = [int(p.degree) * e for p, e in divisors]
    if any(u.k > d for d in degrees):
        return skipped("k exceeds a block degree")
    starts = _block_starts(degrees)
    slices = [_columns(u.basis, range(u.k), lo, hi) for lo, hi in zip(starts, starts[1:])]
    if any(rref(s).rank != u.k for s in slices):
        return skipped("a column slice is rank deficient")
    # a full slice is not in RREF, so each is canonicalized; equal slices
    # under equal divisors walk once
    profiles = _Memo(lambda key: orbit_profile(subspace(key[1]), (key[0],)))
    comps = [profiles[d, s] for s, d in zip(slices, divisors)]
    sizes = [c.period for c in comps]
    if not _pairwise_coprime(sizes):
        return skipped("component cardinalities are not coprime")
    if any(size < 2 for size in sizes):
        # the minimum over component distances is undefined on such instances
        return skipped("a component code is a singleton")
    # one block: its slice is U's basis, so the code is the component
    code = comps[0] if len(comps) == 1 else orbit_profile(u, divisors)
    lhs = code.min_distance
    distances = [c.min_distance for c in comps]
    rhs = min(distances)
    values = {
        "code_distance": lhs,
        "component_min": rhs,
        "component_sizes": sizes,
        "component_distances": distances,
        "code_size": code.period,
    }
    status = "ok" if lhs == rhs else "mismatch"
    return CheckReport(name, status, None, values, instance)


def blockdiag_coprime_check(
    blocks: Sequence[Mat], divisors: Sequence[tuple[Poly, int]]
) -> CheckReport:
    """For a block-diagonal basis diag(B_1, ..., B_t) with full-rank blocks
    and coprime component sizes: the whole code's distance, the
    per-component bound, and the refined bound side by side.

    The distance comes from the structure's own profile, so the code is
    walked once.  Distance vs refined is the hard equality; the
    per-component value is recorded (with a match flag) because it can
    legitimately exceed the true distance.
    """
    name = "blockdiag_coprime"
    divisors = tuple((p, int(e)) for p, e in divisors)
    if not blocks or len(blocks) != len(divisors):
        raise ValueError("one block matrix per divisor, and at least one, is required")
    degrees = [int(p.degree) * e for p, e in divisors]
    if any(b.cols != d for b, d in zip(blocks, degrees)):
        raise ValueError("block width must match its divisor degree")
    field = blocks[0].field
    basis = block_diag_basis(blocks)
    instance = _instance_dict(field, divisors, basis)

    def skipped(reason: str) -> CheckReport:
        return CheckReport(name, "skipped", reason, {}, instance)

    if any(b.rows == 0 for b in blocks):
        return skipped("an empty block was supplied")
    if any(rref(b).rank != b.rows for b in blocks):
        return skipped("a block is rank deficient")
    u = subspace(basis)
    bs = block_structure(u, divisors)
    sizes = [blk.profile.period for blk in bs.blocks]
    if not _pairwise_coprime(sizes):
        return skipped("component cardinalities are not coprime")
    literal, lcm_card = block_bound(bs)
    refined = block_bound_refined(bs)
    # the profile the refined bound read: with two or more blocks it walks
    # the whole code, while the components may take the difference count
    code = bs.profile
    if code.period < 2:
        return skipped("the whole code is a singleton")
    distance = code.min_distance
    values = {
        "brute_distance": distance,
        "bound_literal": literal,
        "bound_refined": refined,
        "literal_matches": literal == distance,
        "component_sizes": sizes,
        "lcm_cardinality": lcm_card,
        "code_size": code.period,
    }
    status = "ok" if distance == refined else "mismatch"
    return CheckReport(name, status, None, values, instance)


def _fullrank_instance(rng: random.Random, field: GF) -> CheckReport:
    n = rng.randint(2, 8)
    divisors = random_unit_divisors(rng, field, n)
    degrees = [int(p.degree) * e for p, e in divisors]
    k = rng.randint(1, min(degrees))
    u = random_subspace(rng, field, n, k)
    return fullrank_coprime_check(u, divisors)


def _blockdiag_instance(rng: random.Random, field: GF) -> CheckReport:
    n = rng.randint(2, 8)
    divisors = random_unit_divisors(rng, field, n)
    blocks = []
    for p, e in divisors:
        d = int(p.degree) * e
        ki = rng.randint(1, d)
        blocks.append(random_full_rank(rng, field, ki, d))
    return blockdiag_coprime_check(blocks, divisors)


# ---------------------------------------------------------------------------


_SUITE_FUNCS = {
    "algebra": suite_algebra,
    "rcf": suite_rcf,
    "groups": suite_groups,
    "codes": suite_codes,
    "bounds": suite_bounds,
}


def run_suites(
    names: list[str], seed: int = 0, trials: int | None = None
) -> list[SuiteResult]:
    if trials is not None and trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    for name in names:  # every name is checked before any suite runs
        if name not in _SUITE_FUNCS:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES} or 'all'")
    return [_SUITE_FUNCS[name](seed=seed, trials=trials) for name in names]
