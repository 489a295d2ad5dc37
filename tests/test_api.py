"""The public API: README's library quick start runs, and the exported names are frozen.

A name leaves rffqudit.__all__ only by editing PUBLIC_NAMES below, so a removal
from the public API is always a deliberate, reviewed change.
"""

import re
from pathlib import Path

import rffqudit

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "BornReport", "ChannelConfig", "ChannelReport", "CheckResult",
    "ConsistencyError", "ContractViolationError", "CoupledBasis",
    "EncodedOperator", "EntropyCheck", "HwsPair", "NumericalError",
    "Permutation", "QOperatorSet", "QuditPovm", "QuditState",
    "REFERENCE_CASES", "ReductionReport", "RffError", "SectorSpec",
    "SizeLimitError", "SpinRegister", "ValidationError", "all_permutations",
    "born_rule_harness", "build_coupled_basis", "build_hws", "build_q_set",
    "cg_singlets", "coupling_fingerprint", "decode_payload", "decode_state",
    "encode_povm", "encode_state", "encoded_entropy_check", "entropy_bits",
    "fourier_coupling", "get_max_constituents", "gram_residual", "haar_su2",
    "hws_relations_residual", "isometry_residuals", "kron_power",
    "matrix_from_json_dict", "matrix_to_json_dict", "multiplicity",
    "n3_pauli", "n3_q_operators", "n3_sector_projector", "n3_trine",
    "n4_akl", "n4_hws", "n4_q_operators", "n4_sector_projectors",
    "n4_singlet_layer", "n4_to_n3_reduction", "partial_trace",
    "permutation_indices", "permutation_operator", "product_ket",
    "random_density", "random_povm", "random_pure_density", "run_channel",
    "run_suite", "sector_census", "sector_index_set",
    "sector_membership_residual", "set_max_constituents", "sigma",
    "singlet_projector", "swap", "symmetric_singlets", "total_J",
    "trace_distance", "uhlmann_fidelity", "validate_coupling",
]


def test_public_names_are_frozen_and_resolve():
    assert sorted(rffqudit.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(rffqudit, name) is not None, name


def test_readme_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README}:quick-start", "exec"), namespace)
    assert namespace["report"].aggregate["fidelity"]["min"] > 1 - 1e-9
    assert abs(namespace["round_trip"].rho - namespace["state"].rho).max() < 1e-12
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and float(printed[0]) > 1 - 1e-9
