"""Graded homotopy of the mod-2 equivariant Eilenberg-MacLane spectrum
over cyclic 2-groups: a closed-form basis engine, Tate-row closed forms,
and a Bredon-cohomology brute-force oracle for differential testing.
"""

from .reps import (
    Degree,
    DegreeError,
    make_degree,
    underlying_dim,
    fixed_dim,
    restrict,
    pullback_eps,
    parse_degree,
    format_degree,
)
from .monomial import (
    Monomial,
    MonomialError,
    degree_of,
    multiply,
    is_gold_zero,
    positive_cone_basis,
    parse_monomial,
    format_monomial,
)
from .engine import (
    AnswerBasis,
    BasisElement,
    basis,
    dimension,
    part2,
    part2_closed,
    part3,
    part4,
    part_pos,
    d_divisible,
    summand_count,
    summand_audit,
)
from .tate import group_cohomology_dim, hh_basis, ht_basis, hb_basis, perp_hb_basis
from .duality import dual_degree, dual_monomial, duality_scan, lambda_class
from .oracle import (
    BudgetExceededError,
    MackeyAnswer,
    oracle_pi,
    oracle_top_dim,
    verify_lemma_kernel,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
