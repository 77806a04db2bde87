"""Symbolic nest algebra operators and decision procedures for
two-sided multiplication maps: zero, compactness, weak compactness,
ideal membership, and the witness constructions behind them."""

from .errors import (
    NestAlgError,
    MalformedSpec,
    IndexMismatch,
    SchemaError,
    NotInAlgebra,
    UndecidableBoundary,
    WitnessBudgetExhausted,
)
from .nests import Nest, NestCut, make_nest, NEG_INF, POS_INF
from .rules import (
    SeqRule,
    rule_const,
    rule_indicator,
    rule_harmonic,
    rule_geometric,
    rule_power,
    rule_finite,
    rule_comb,
    rule_scale,
    rule_shift,
    rule_mask,
    rule_product,
    rule_sum,
    rule_from_json,
    rule_to_json,
)
from .operators import (
    OperatorExpr,
    ZERO,
    diag,
    identity,
    interval_proj,
    wshift,
    band,
    rank_one,
    finite_matrix,
    basis_vector,
    make_vector,
    op_sum,
    op_scale,
    op_product,
    op_adjoint,
    canonicalize,
    render,
    entry,
    norm_bound,
    parse_operator,
    operator_to_json,
)
from .algebra import MultiplicationTask, alg_membership, rank_one_membership
from .numerics import NormInterval, power_norm, singular_values
from .compactness import classify_compact, ess_norm_proxy, boundary_rq, boundary_ul
from .decisions import (
    mult_zero_test,
    mult_compact_decision,
    mult_weak_decision,
    mult_weak_decision_2proj,
    quasitriangular_decision,
    quotient_verdict,
    range_in_compacts_sampler,
)
from .ideals import (
    FiniteSubnest,
    diag_expectation,
    radical_seminorm,
    jc_decompose,
    compact_members_ideal_report,
)
from .constructions import (
    SubseqCertificate,
    greedy_subsequence,
    certificate_check,
    counterexample_refuter,
    linf_embedding,
)
from .scenarios import Scenario, run_scenario, verify_suite, random_member, brute_force_zero

__version__ = "0.1.0"
