"""Families of pairwise non-intersecting arithmetic progressions.

Exact tools to build large disjoint families with distinct moduli up to x,
verify them pairwise, search small ranges exhaustively, refine families
through certified common-prime chains, and compare the counts involved
against their predicted sub-exponential scales.
"""

__version__ = "0.1.0"

from .bounds import (
    CountsRow,
    alpha_exceeding_fraction,
    bounds_report,
    choose_alpha,
    omega_tail_majorant,
    prime_power_reciprocal_sum,
    rows_to_csv,
    squarefull_reduce,
)
from .construction import (
    ConstructionParams,
    ConstructionResult,
    assign_residue,
    build_construction,
    choose_prime,
    truncated_construction,
)
from .errors import (
    CapacityError,
    DomainError,
    FamilyFormatError,
    NotDisjointError,
    StructuralError,
)
from .family import (
    Family,
    Progression,
    VerificationReport,
    Witness,
    dumps_family,
    family_digest,
    loads_family,
    read_family,
    translate,
    verify_family,
    write_family,
)
from .numtheory import (
    Factorization,
    FactorTable,
    crt_pair,
    factor_table,
    factorize,
    l_scale,
    omega_tail_count,
    psi,
    psi_star,
    sieve_primes,
)
from .refinement import (
    CertificateCheck,
    RefinementCertificate,
    RefinementParams,
    RefinementStep,
    build_chain,
    certificate_from_dict,
    certificate_to_dict,
    check_certificate,
    read_certificate,
    write_certificate,
)
from .solver import (
    SearchConfig,
    SearchResult,
    solve_exact,
)

__all__ = [
    "CapacityError",
    "CertificateCheck",
    "ConstructionParams",
    "ConstructionResult",
    "CountsRow",
    "DomainError",
    "FactorTable",
    "Factorization",
    "Family",
    "FamilyFormatError",
    "NotDisjointError",
    "Progression",
    "RefinementCertificate",
    "RefinementParams",
    "RefinementStep",
    "SearchConfig",
    "SearchResult",
    "StructuralError",
    "VerificationReport",
    "Witness",
    "alpha_exceeding_fraction",
    "assign_residue",
    "bounds_report",
    "build_chain",
    "build_construction",
    "certificate_from_dict",
    "certificate_to_dict",
    "check_certificate",
    "choose_alpha",
    "choose_prime",
    "crt_pair",
    "dumps_family",
    "factor_table",
    "factorize",
    "family_digest",
    "l_scale",
    "loads_family",
    "omega_tail_count",
    "omega_tail_majorant",
    "prime_power_reciprocal_sum",
    "psi",
    "psi_star",
    "read_certificate",
    "read_family",
    "rows_to_csv",
    "sieve_primes",
    "solve_exact",
    "squarefull_reduce",
    "translate",
    "truncated_construction",
    "verify_family",
    "write_certificate",
    "write_family",
]
