"""Rotation-invariant (reference-frame-free) logical qudits.

A register of n spin-1/2 constituents hides a logical qudit of dimension
d = n - 1 inside its second-largest total-angular-momentum sector. States
and measurements encoded there are invariant under collective rotations
u^(tensor n), so two parties can communicate quantum information without
sharing spatial reference frames. This package builds the construction,
verifies its operator algebra, and simulates the collective-noise channel.
"""

from .channel import (
    BornReport,
    ChannelConfig,
    ChannelReport,
    born_rule_harness,
    random_density,
    random_povm,
    run_channel,
)
from .coupling import (
    CoupledBasis,
    SectorSpec,
    build_coupled_basis,
    cg_singlets,
    coupling_fingerprint,
    fourier_coupling,
    gram_residual,
    isometry_residuals,
    multiplicity,
    sector_census,
    sector_index_set,
    sector_membership_residual,
    symmetric_singlets,
    validate_coupling,
)
from .encoder import (
    EncodedOperator,
    HwsPair,
    QuditPovm,
    QuditState,
    build_hws,
    build_q_set,
    decode_payload,
    decode_state,
    encode_povm,
    encode_state,
    hws_relations_residual,
)
from .errors import (
    ConsistencyError,
    ContractViolationError,
    NumericalError,
    RffError,
    SizeLimitError,
    ValidationError,
)
from .linalg import (
    entropy_bits,
    matrix_from_json_dict,
    matrix_to_json_dict,
    partial_trace,
    trace_distance,
    uhlmann_fidelity,
)
from .reference import (
    REFERENCE_CASES,
    ReductionReport,
    n3_pauli,
    n3_q_operators,
    n3_sector_projector,
    n3_trine,
    n4_akl,
    n4_hws,
    n4_q_operators,
    n4_sector_projectors,
    n4_singlet_layer,
    n4_to_n3_reduction,
)
from .spinsys import (
    Permutation,
    SpinRegister,
    all_permutations,
    haar_su2,
    kron_power,
    permutation_indices,
    permutation_operator,
    product_ket,
    sigma,
    singlet_projector,
    swap,
    total_J,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "BornReport", "ChannelConfig", "ChannelReport", "CheckResult",
    "ConsistencyError", "ContractViolationError", "CoupledBasis",
    "EncodedOperator", "HwsPair", "NumericalError",
    "Permutation", "QuditPovm", "QuditState", "REFERENCE_CASES",
    "ReductionReport", "RffError", "SectorSpec", "SizeLimitError",
    "SpinRegister", "ValidationError", "all_permutations",
    "born_rule_harness", "build_coupled_basis", "build_hws", "build_q_set",
    "cg_singlets", "coupling_fingerprint", "decode_payload", "decode_state",
    "encode_povm", "encode_state", "entropy_bits",
    "fourier_coupling", "gram_residual", "haar_su2", "hws_relations_residual",
    "isometry_residuals", "kron_power", "matrix_from_json_dict",
    "matrix_to_json_dict", "multiplicity", "n3_pauli", "n3_q_operators",
    "n3_sector_projector", "n3_trine", "n4_akl", "n4_hws", "n4_q_operators",
    "n4_sector_projectors", "n4_singlet_layer", "n4_to_n3_reduction",
    "partial_trace", "permutation_indices", "permutation_operator",
    "product_ket", "random_density", "random_povm", "run_channel",
    "run_suite", "sector_census", "sector_index_set",
    "sector_membership_residual", "sigma", "singlet_projector", "swap",
    "symmetric_singlets", "total_J", "trace_distance", "uhlmann_fidelity",
    "validate_coupling",
]
