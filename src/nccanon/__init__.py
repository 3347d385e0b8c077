"""Exact verification toolkit for pluricanonical computations on
normal crossing surfaces.

The library mechanizes two local computations and their desk-scale global
consequences: the gluing condition for log pluricanonical sections on a
pair of planes meeting a half-plane chain (whose coefficient ideals
(x*y, x^m, y^m) force a fresh generator in every weight), and the
restriction of even-weight sections on the quadric cone u*v = w^2 (where a
pole of order m is possible locally but dies after gluing to a smooth
chart).  Supporting modules provide exact Laurent-polynomial arithmetic,
monomial-ideal bookkeeping, elliptic-curve divisor checks, blow-up
intersection lattices, and branch-form root counts.
"""

from .exactalg import (
    ExactAlgError,
    LaurentPolynomial,
    NegativeExponentAtRestriction,
    ParseError,
    UnknownVariable,
    VariableMismatch,
    divides,
    parse_polynomial,
)
from .monideal import (
    AffineExponent,
    GradedMonomialFamily,
    MonomialIdeal,
    MultiplicativityViolation,
    ReesGenerationReport,
    brute_force_new_generators,
    minimalize,
    rees_report,
)
from .logres import (
    ASSIGNMENT_0XY0,
    BranchMatch,
    BranchRestriction,
    BranchRule,
    CHAIN_PLANES,
    ChartModel,
    EmbeddingAssignment,
    EmbeddingNotFound,
    Gluing,
    HALF_PLANE_U,
    HALF_PLANE_V,
    MonomialMap,
    NC_PAIR,
    PlaneEmbedding,
    PluriSection,
    SIGMA,
    SMOOTH_PAIR,
    UnknownBranch,
    embed_check,
    embed_search,
    gluing_ideal,
    glues,
    obstructions,
    partner_sections,
    pullback_sigma,
    restrict,
)
from .conecalc import (
    CONE_GLUING,
    CONE_MAP,
    ChartElement,
    ConeElement,
    ConeSection,
    glued_pole_bound,
    mult_along_c2,
    pole_bound_s2,
    restrict_cone,
    restrict_cone_log_frame,
    to_chart,
)
from .geomcheck import (
    ECCurve,
    ECPoint,
    INFINITY,
    IntersectionLattice,
    NotSquarefree,
    WeightedHyperellipticCurve,
    binary_forms_share_root,
    ec_add,
    fixed_points,
    genus2_pencil_lattice,
    h0_p1,
    linear_equiv,
    nc_pullback_degree,
    node_count,
    product_ample,
    product_canonical_bidegree,
    sigma_node_disjoint,
)

__version__ = "0.1.0"
