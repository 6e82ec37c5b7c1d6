#!/usr/bin/env python3
"""Block-diagonal generators: component codes, distance bounds, and where
the per-component bound breaks.

The generator diag(M_1, M_2) with blocks companion(x^3+x+1) and
companion(x^2+x+1) drives a 2-dimensional base subspace split across the
blocks.  Each component on its own is a full line orbit; the question is
what the composite code does.
"""

from orbitcodes import (
    GF,
    Mat,
    Poly,
    block_bound,
    block_bound_refined,
    block_structure,
    companion_diag,
    component_codes,
    min_distance,
    orbit_code,
    subspace,
)
from orbitcodes.verify import blockdiag_coprime_check, fullrank_coprime_check

f2 = GF(2)
divisors = ((Poly(f2, [1, 1, 0, 1]), 1), (Poly(f2, [1, 1, 1]), 1))

base = subspace(Mat.from_rows(f2, [[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]]))
bs = block_structure(base, divisors)
print("sub-blocks (rows with their pivot inside each block):")
for blk in bs.blocks:
    print(f"  block {blk.index}: k_i = {blk.k}, matrix {blk.matrix.to_lists()}")

for blk, comp in zip(bs.blocks, component_codes(bs)):
    print(f"component code {blk.index}: size {len(comp)}, "
          f"min distance {min_distance(comp)}")

literal, lcm_card = block_bound(bs)
refined = block_bound_refined(bs)
code = orbit_code(base, companion_diag(bs.divisors))
print("\nwhole code: size", len(code), "(lcm of component sizes:", lcm_card, ")")
print("true minimum distance:", min_distance(code))
print("per-component bound:", literal, " <- overshoots here")
print("refined single-power bound:", refined, " <- exact for block-diagonal bases")

# Why the per-component form overshoots: a global power can return one
# component to its start (contributing its full dimension to the overlap)
# while still moving the other.  The refined bound scans one global power
# across all components at once.

print("\nequality checks under coprime component cardinalities:")
report = fullrank_coprime_check(
    subspace(Mat.from_rows(f2, [[1, 0, 0, 1, 0]])), divisors
)
print("  full-rank slices, k=1:", report.status, report.values)
report = blockdiag_coprime_check(
    [Mat.from_rows(f2, [[1, 0, 0]]), Mat.from_rows(f2, [[1, 0]])], divisors
)
print("  block-diagonal base:  ", report.status, report.values)
