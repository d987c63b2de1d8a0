"""Cryptographic substrate for DMW.

Everything DMW needs from cryptography, built from scratch on Python
integers: metered modular arithmetic (:mod:`.modular`), prime and Schnorr
group generation (:mod:`.primes`, :mod:`.groups`), polynomials over ``Z_q``
(:mod:`.polynomials`), Lagrange interpolation and degree resolution
(:mod:`.interpolation`), Pedersen commitments (:mod:`.commitments`), and the
degree-encoded secret-sharing scheme (:mod:`.secretsharing`).
"""

from .backend import (
    ArithmeticBackend,
    BackendUnavailableError,
    active_backend,
    available_backends,
    gmpy2_available,
    select_backend,
    using_backend,
)
from .commitments import (
    PedersenCommitter,
    PolynomialCommitment,
    evaluate_commitment,
    verify_share_batch,
)
from .fastexp import (
    FixedBaseTable,
    FixedBaseTableCache,
    PublicValueCache,
    batch_mod_inv,
    clear_fixed_base_tables,
    fixed_base_table,
    fixed_base_table_stats,
    multi_exp,
    naive_mode,
)
from .groups import GroupParameters, SchnorrGroup, fixture_group
from .interpolation import (
    interpolate_at_zero,
    lagrange_weights_at_zero,
    resolve_degree,
    resolve_degree_in_exponent,
)
from .modular import (
    NULL_COUNTER,
    OperationCounter,
    metered,
    mod_add,
    mod_div,
    mod_exp,
    mod_inv,
    mod_mul,
    mod_sub,
)
from .polynomials import Polynomial, sum_polynomials
from .secret import (
    DeclassificationEvent,
    Secret,
    SecretLeakError,
    clear_declassification_audit,
    declassification_audit,
    declassify,
    local_value,
    sanitize_enabled,
    secret_json_default,
    tag_secret,
)
from .primes import (
    find_subgroup_generator,
    generate_schnorr_parameters,
    is_prime,
    next_prime,
    random_prime,
)
from .secretsharing import (
    DegreeEncodedSharing,
    DegreeEncodingScheme,
    ShamirScheme,
    Share,
)

__all__ = [
    "NULL_COUNTER",
    "ArithmeticBackend",
    "BackendUnavailableError",
    "DeclassificationEvent",
    "DegreeEncodedSharing",
    "DegreeEncodingScheme",
    "FixedBaseTable",
    "GroupParameters",
    "OperationCounter",
    "PedersenCommitter",
    "Polynomial",
    "PolynomialCommitment",
    "PublicValueCache",
    "SchnorrGroup",
    "Secret",
    "SecretLeakError",
    "ShamirScheme",
    "Share",
    "active_backend",
    "available_backends",
    "batch_mod_inv",
    "clear_declassification_audit",
    "declassification_audit",
    "declassify",
    "evaluate_commitment",
    "local_value",
    "sanitize_enabled",
    "secret_json_default",
    "tag_secret",
    "find_subgroup_generator",
    "FixedBaseTableCache",
    "clear_fixed_base_tables",
    "fixed_base_table",
    "fixed_base_table_stats",
    "fixture_group",
    "generate_schnorr_parameters",
    "gmpy2_available",
    "interpolate_at_zero",
    "is_prime",
    "lagrange_weights_at_zero",
    "metered",
    "mod_add",
    "mod_div",
    "mod_exp",
    "mod_inv",
    "mod_mul",
    "mod_sub",
    "multi_exp",
    "naive_mode",
    "next_prime",
    "random_prime",
    "resolve_degree",
    "resolve_degree_in_exponent",
    "select_backend",
    "sum_polynomials",
    "using_backend",
    "verify_share_batch",
]
