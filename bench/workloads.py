"""Seeded operation lists for the four benchmark workloads.

An operation is a JSON-able list ``[kind, *args]`` that ``worker.py``
executes:

* ``["cli", argv]``: ``orbitcodes.cli.main(argv)``; the output is stdout.
* ``["field", p, m]``: ``GF(p, m)``.
* ``["matrix_order", field, rows, entries]``: ``groups.matrix_order``.
* ``["is_irreducible", field, coeffs]`` and ``["factor", field, coeffs]``:
  the ``poly`` functions of the same name.

``field`` is a CLI field designator ("2", "3", "2^2").  The lists are
generated in the benchmark's parent process, so the program under test
receives only finished inputs and its module caches start cold.

A seed selects one of ``POOL`` input sets (``seed % POOL``); the output of
every operation of every input set was captured from the parent commit of
the benchmark and is stored in ``reference.json``, so each run is checked
byte for byte whatever seed it is given.
"""

from __future__ import annotations

import math
import random

from orbitcodes.field import GF
from orbitcodes.matrix import Mat
from orbitcodes.poly import Poly, irreducibles, order
from orbitcodes.sampling import (
    random_block_diag_basis,
    random_invertible,
    random_monic,
    random_subspace,
)
from orbitcodes.textio import format_mat, format_poly, parse_field

POOL = 32

# (field, n, k): single primitive (Singer) generators, q^n - 1 codewords
# except for the rare subspace with a nontrivial stabilizer.
SINGER = (("2", 12, 3), ("2^2", 6, 2), ("3", 7, 2), ("2", 10, 2))

# (field, ((block degree, exponent), ...)): multi-block generators built
# from primitive irreducibles, so |G| is fixed per template and capped at
# CODE_BLOCKS_MAX_ORDER; the seed picks the irreducibles and the subspace.
BLOCK_TEMPLATES = (
    ("2", ((2, 2),)),
    ("2", ((3, 1), (2, 1))),
    ("2", ((4, 1), (2, 1))),
    ("2", ((3, 2),)),
    ("2", ((4, 1), (3, 1))),
    ("2", ((5, 1), (2, 1))),
    ("2", ((3, 2), (2, 1))),
    ("2", ((5, 1), (3, 1))),
    ("2", ((3, 3),)),
    ("2", ((4, 2), (1, 1))),
    ("3", ((2, 1), (2, 1))),
    ("3", ((2, 2),)),
    ("3", ((3, 1), (2, 1))),
    ("3", ((4, 1), (2, 1))),
    ("3", ((3, 2),)),
    ("2^2", ((2, 1), (2, 1))),
    ("2^2", ((2, 2),)),
    ("2^2", ((1, 3), (2, 1))),
    ("2^2", ((2, 2), (1, 1))),
    ("2^2", ((3, 2),)),
)
CODE_BLOCKS_ROUNDS = 6
CODE_BLOCKS_MAX_ORDER = 256

CLASSIFY = (("2", 10), ("2", 11), ("2", 12), ("3", 6), ("2^2", 5))
BIG_FIELDS = ((2, 8), (3, 5))
# Sizes are fixed and only the entries are random, so every seed has the
# same mix of small operations.  The 36 polynomial operations are mostly
# faster, and the other 36 small and large ones slower, than the 40 GF(4)
# matrix orders.  So the median operation falls in the middle of those,
# whose latency varies least from input to input, and op_p50_ms is steady.
MATRIX_ORDER_SHAPES = (("2^2", 5, 40), ("3", 6, 14), ("2", 8, 14))  # field, n, count
POLY_DEGREES = tuple(range(16, 25))
POLY_ROUNDS = 2  # for each of is_irreducible and factor

WORKLOADS = ("code-singer", "code-blocks", "classify-algebra", "verify-all")


def _primitives(field: GF, degree: int):
    """Primitive irreducibles of a degree, lazily, in ``irreducibles`` order."""
    full = field.q**degree - 1
    return (p for p in irreducibles(field, degree) if p.coeff(0) and order(p) == full)


def _power_order(p: Poly, e: int) -> int:
    """ord(p^e) = ord(p) * char^t with char^t the least power >= e
    (Lidl and Niederreiter, Finite Fields, Thm 3.8)."""
    t = 0
    while p.field.p**t < e:
        t += 1
    return order(p) * p.field.p**t


def _code_argv(designator: str, n: int, divisors, basis: Mat) -> list[str]:
    return [
        "code",
        "--field", designator,
        "--n", str(n),
        "--divisors", ";".join(format_poly(p**e) for p, e in divisors),
        "--subspace", format_mat(basis),
    ]


def code_singer(rng: random.Random) -> list[list]:
    ops = []
    for designator, n, k in SINGER:
        field = parse_field(designator)
        generator = next(_primitives(field, n))
        basis = random_subspace(rng, field, n, k).basis
        ops.append(["cli", _code_argv(designator, n, ((generator, 1),), basis)])
    return ops


def code_blocks(rng: random.Random) -> list[list]:
    ops = []
    for _ in range(CODE_BLOCKS_ROUNDS):
        for designator, shape in BLOCK_TEMPLATES:
            field = parse_field(designator)
            divisors = [(rng.choice(list(_primitives(field, d))), e) for d, e in shape]
            group_order = math.lcm(*(_power_order(p, e) for p, e in divisors))
            if group_order > CODE_BLOCKS_MAX_ORDER:
                raise ValueError(f"template {designator} {shape} exceeds the |G| cap")
            n = sum(d * e for d, e in shape)
            # k = n // 2 on every seed: the cost of a walk step grows with k
            # faster than with anything else the seed chooses.
            k = n // 2
            if len(ops) % 2 == 0:
                basis = random_block_diag_basis(rng, field, divisors)[0]
                while basis.rows != k:
                    basis = random_block_diag_basis(rng, field, divisors)[0]
            else:
                basis = random_subspace(rng, field, n, k).basis
            ops.append(["cli", _code_argv(designator, n, divisors, basis)])
    return ops


def classify_algebra(rng: random.Random) -> list[list]:
    ops = []
    for kind in ("is_irreducible", "factor"):
        for degree in POLY_DEGREES * POLY_ROUNDS:
            f = random_monic(rng, GF(2), degree)
            ops.append([kind, "2", list(f.coeffs)])
    for designator, n, count in MATRIX_ORDER_SHAPES:
        for _ in range(count):
            a = random_invertible(rng, parse_field(designator), n)
            ops.append(["matrix_order", designator, n, list(a.entries)])
    for p, m in BIG_FIELDS:
        ops.append(["field", p, m])
    for designator, n in CLASSIFY:
        ops.append(["cli", ["classify", "--field", designator, "--n", str(n)]])
    ops.append(["cli", ["examples"]])
    return ops


def verify_all(input_set: int) -> list[list]:
    # The suites' work depends on their seed by up to a fifth; two seeds per
    # repetition narrow that spread between input sets.
    return [
        ["cli", ["verify", "--suite", "all", "--seed", str(seed)]]
        for seed in (input_set, input_set + POOL)
    ]


def operations(workload: str, seed: int) -> list[list]:
    """The operation list of a workload; equal seeds give equal lists."""
    input_set = seed % POOL
    rng = random.Random(f"{workload}/{input_set}")
    if workload == "code-singer":
        return code_singer(rng)
    if workload == "code-blocks":
        return code_blocks(rng)
    if workload == "classify-algebra":
        return classify_algebra(rng)
    if workload == "verify-all":
        return verify_all(input_set)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def fields(ops: list[list]) -> list[str]:
    """Designators of the small fields the operations' inputs live in; the
    worker builds them during set-up."""
    out = set()
    for op in ops:
        if op[0] == "cli" and "--field" in op[1]:
            out.add(op[1][op[1].index("--field") + 1])
        elif op[0] in ("matrix_order", "is_irreducible", "factor"):
            out.add(op[1])
    return sorted(out)
