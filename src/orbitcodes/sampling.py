"""Seeded random generators used by the verify suites and tests.

Everything draws from a caller-supplied random.Random so that a seed fully
determines a run.
"""

from __future__ import annotations

import random
from typing import Sequence

from .codes import Subspace, subspace
from .field import GF
from .matrix import Mat, block_diag_basis
from .poly import Poly, irreducibles
from .rows import _kernel


def random_matrix(rng: random.Random, field: GF, rows: int, cols: int) -> Mat:
    if rows < 0 or cols < 0:
        raise ValueError(f"negative size {rows}x{cols}")
    entries = tuple([rng.randrange(field.q) for _ in range(rows * cols)])
    return Mat._trusted(field, rows, cols, entries)


def random_invertible(rng: random.Random, field: GF, n: int) -> Mat:
    return random_full_rank(rng, field, n, n)


def random_full_rank(rng: random.Random, field: GF, rows: int, cols: int) -> Mat:
    """Random matrices drawn until one has rank `rows`, each rank the
    number of pivots of its packed rows (rows.py)."""
    kern = _kernel(field, cols)
    while True:
        m = random_matrix(rng, field, rows, cols)
        if len(kern.pivots(kern.key(m))) == rows:
            return m


def random_subspace(rng: random.Random, field: GF, n: int, k: int) -> Subspace:
    return subspace(random_full_rank(rng, field, k, n))


def random_monic(rng: random.Random, field: GF, degree: int) -> Poly:
    return Poly.from_code(field, degree, rng.randrange(field.q**degree))


def random_unit_divisors(
    rng: random.Random, field: GF, n: int
) -> tuple[tuple[Poly, int], ...]:
    """Random (irreducible p != x, e) blocks, 1 to 3 of them, with degrees
    summing to n."""
    x = Poly.x(field)
    t = rng.randint(1, min(3, n))
    cuts = sorted(rng.sample(range(1, n), t - 1)) if t > 1 else []
    degrees = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    divisors = []
    for d in degrees:
        s, e = rng.choice([(s, d // s) for s in range(1, d + 1) if d % s == 0])
        # never empty: x + 1 has degree 1, and no irreducible of degree >= 2 is x
        divisors.append((rng.choice([p for p in irreducibles(field, s) if p != x]), e))
    return tuple(divisors)


def random_block_diag_basis(
    rng: random.Random, field: GF, divisors: Sequence[tuple[Poly, int]]
) -> tuple[Mat, list[Mat]]:
    """A block-diagonal basis diag(B_1, ..., B_t) with random full-rank
    blocks (at least one nonempty); returns (basis, blocks)."""
    degrees = [int(p.degree) * e for p, e in divisors]
    while True:
        blocks = []
        for d in degrees:
            ki = rng.randint(0, d)
            blocks.append(
                random_full_rank(rng, field, ki, d) if ki else Mat(field, 0, d, [])
            )
        if any(b.rows for b in blocks):
            break
    return block_diag_basis(blocks), blocks
