"""Equi-difference conflict-avoiding codes: construction, verification,
upper bounds, exhaustive optimality checks and channel simulation."""

from .bounds import (
    BoundReport,
    coprime_excess_exact,
    corollary1_bound,
    exact_refund_floor,
    new_bound,
    omega,
    omega_star,
    prime_divisor_bound,
    subset_excess_bound,
)
from .channel import (
    ProtocolSequence,
    Scenario,
    SimReport,
    cross_correlation,
    scenario_from_json,
    simulate,
    to_protocol_sequence,
    verify_irrepressibility_exhaustive,
)
from .codes import (
    Certificate,
    CertFlags,
    Code,
    DifferenceSet,
    EquiDiffCodeword,
    VerificationReport,
    code_from_json,
    code_to_json,
    difference_set,
    is_exceptional,
    is_tight,
    support,
    support_difference_set,
    verify_cac,
)
from .constructions import (
    ConditionWitness,
    Theorem1Params,
    check_condition,
    construct_lemma1,
    construct_theorem1,
    construct_theorem2,
    construct_two_prime,
    find_theorem1_params,
)
from .errors import (
    BudgetExceeded,
    CacError,
    ConditionNotSatisfied,
    DegenerateCodeword,
    DuplicateAssignment,
    HeterogeneousCode,
    InconsistentClaim,
    InputNotOptimal,
    InputNotTight,
    LengthsNotCoprimePrimes,
    NotACac,
    NotAUnit,
    NotPrime,
    NotPrimitive,
    ParamMismatch,
    ParseError,
    SdrConditionFailed,
    UnsupportedWeight,
)
from .numtheory import (
    CyclicSubgroup,
    Factorization,
    cyclic_subgroup,
    divisors,
    factorize,
    is_prime,
    multiplicative_order,
    primitive_root,
    totient,
)
from .oracle import (
    DisjointnessGraph,
    OracleResult,
    build_graph,
    certify,
    max_equi_diff_cac,
)

__version__ = "0.1.0"
