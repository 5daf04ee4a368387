"""Exact mutual-visibility computations on Kneser-type graphs.

The package builds Kneser, bipartite Kneser, and Johnson graphs, computes
their visibility parameters by definition-level search with certificates,
and cross-checks the closed formulas for those parameters against
independent oracles (covering numbers, hypergraph transversals, and
pattern-free extremal edge counts).
"""

from .budget import Bounds, Budget, BudgetExhausted, DEFAULT_BUDGET
from .covering import (
    CoveringCertificate,
    CStarCertificate,
    c_star,
    covering_number,
    min_edges_with_tau,
)
from .constructions import (
    build_complete_uniform,
    build_generalized_triangle,
    build_h_nk,
    generalized_triangle_vertex_count,
)
from .errors import ConstraintError, DomainError, MvlabError, PreconditionError
from .families import (
    FamilyGraph,
    FamilyKind,
    bipartite_kneser,
    format_family,
    johnson,
    kneser,
    parse_family,
)
from .hypergraphs import (
    ACTIVE_KERNEL,
    Hypergraph,
    TransversalCertificate,
    format_hypergraph,
    hypergraph,
    independence_number,
    is_transversal,
    parse_hypergraph,
    transversal_number,
)
from .subsets import KSubset
from .theorems import FormulaId, VerificationReport, all_formula_ids, verify
from .turan import (
    Pattern,
    TuranResult,
    build_c4_suspension,
    build_k4_suspension,
    contains_pattern,
    ex_uniform,
    parse_pattern,
    turan_k4_closed,
)
from .visibility import (
    Variant,
    VisibilityCertificate,
    is_visibility_set,
    kneser_total_mv_check_fast,
    max_visibility_number,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVE_KERNEL",
    "Bounds",
    "Budget",
    "BudgetExhausted",
    "ConstraintError",
    "CoveringCertificate",
    "CStarCertificate",
    "DEFAULT_BUDGET",
    "DomainError",
    "FamilyGraph",
    "FamilyKind",
    "FormulaId",
    "Hypergraph",
    "KSubset",
    "MvlabError",
    "Pattern",
    "PreconditionError",
    "TransversalCertificate",
    "TuranResult",
    "Variant",
    "VerificationReport",
    "VisibilityCertificate",
    "all_formula_ids",
    "bipartite_kneser",
    "build_c4_suspension",
    "build_complete_uniform",
    "build_generalized_triangle",
    "build_h_nk",
    "build_k4_suspension",
    "c_star",
    "contains_pattern",
    "covering_number",
    "ex_uniform",
    "format_family",
    "format_hypergraph",
    "generalized_triangle_vertex_count",
    "hypergraph",
    "independence_number",
    "is_transversal",
    "is_visibility_set",
    "johnson",
    "kneser",
    "kneser_total_mv_check_fast",
    "max_visibility_number",
    "min_edges_with_tau",
    "parse_family",
    "parse_hypergraph",
    "parse_pattern",
    "transversal_number",
    "turan_k4_closed",
    "verify",
]
