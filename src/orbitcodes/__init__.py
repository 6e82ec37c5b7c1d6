"""Cyclic orbit codes in the Grassmannian over small finite fields.

Layers, bottom up: exact GF(p^m) arithmetic on integer element codes
(field), polynomials with irreducibility/factorization/order (poly), dense
matrices with RREF and companion blocks (matrix), rational canonical forms
from the characteristic polynomial and kernel ranks (rcf), cyclic-subgroup
conjugacy classification (groups), orbit codes with distance distributions
and block bounds (codes), seeded property suites (verify), and a CLI (cli).
"""

from .codes import (
    BlockStructure,
    OrbitCode,
    OrbitProfile,
    SubBlock,
    Subspace,
    act,
    block_bound,
    block_bound_refined,
    block_structure,
    component_codes,
    conjugate_code,
    distance_distribution,
    intersection_dim,
    min_distance,
    orbit_code,
    orbit_period,
    orbit_profile,
    stabilizer_order,
    subspace,
    subspace_distance,
)
from .errors import ParseError, SingularMatrixError
from .field import GF
from .groups import (
    ClassRep,
    CyclicGroup,
    GeneratedGroup,
    class_representatives,
    closure,
    conjugacy_witness,
    divisors_order,
    matrix_order,
    same_signature,
    signature,
    signature_of_divisors,
)
from .matrix import (
    Mat,
    RrefResult,
    block_diag,
    companion,
    companion_diag,
    is_invertible,
    rank,
    rref,
)
from .poly import (
    NEG_INF,
    Poly,
    factor,
    gcd,
    irreducibles,
    is_irreducible,
    order,
)
from .rcf import (
    are_conjugate,
    char_poly,
    elementary_divisors,
    evaluate_poly_at_matrix,
    invariant_factors,
    min_poly,
    rcf,
    rcf_from_divisors,
)
from .textio import format_mat, format_poly, parse_field, parse_mat, parse_poly

__version__ = "0.1.0"
