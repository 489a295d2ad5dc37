"""The public API: README's library quick start runs, the exported names are
frozen, and no module of the package holds process state.

A name leaves rffqudit.__all__ only by editing PUBLIC_NAMES below, so a removal
from the public API is always a deliberate, reviewed change.
"""

import ast
import re
from pathlib import Path

import rffqudit

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(rffqudit.__file__).resolve().parent

PUBLIC_NAMES = [
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


def _process_state(tree: ast.AST) -> list[str]:
    """Each `global` statement and each os.environ / os.getenv read in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"line {node.lineno}: global {', '.join(node.names)}")
        elif (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"line {node.lineno}: os.{node.attr}")
    return found


def test_the_library_holds_no_process_state():
    # A module-level global or an environment read makes a result depend on
    # what ran before in the process, or on the shell it was started from.
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        found = _process_state(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            offenders[str(path.relative_to(PACKAGE))] = found
    assert offenders == {}


SEEDING_NAMES = {"SeedSequence", "default_rng", "PCG64"}


def test_every_stream_is_seeded_by_the_two_seeding_helpers():
    # One path from a seed to its streams: spinsys.seeded_generator for one
    # stream and spinsys.spawned_generators for one per trial.
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helpers = {id(node) for function in ast.walk(tree)
                   if isinstance(function, ast.FunctionDef) and path.name == "spinsys.py"
                   and function.name in ("seeded_generator", "spawned_generators")
                   for node in ast.walk(function)}
        found = [node.lineno for node in ast.walk(tree) if id(node) not in helpers
                 and (getattr(node, "attr", None) in SEEDING_NAMES
                      or getattr(node, "id", None) in SEEDING_NAMES)]
        if found:
            offenders[str(path.relative_to(PACKAGE))] = found
    assert offenders == {}


def _argmax_calls(tree: ast.AST, exempt: str | None = None) -> list[int]:
    """The line of each argmax call in tree outside the function named exempt."""
    skipped = {id(node) for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef) and function.name == exempt
               for node in ast.walk(function)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in skipped
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "argmax"]


def test_first_failing_index_checks_share_one_spelling():
    # "Raise for the first index at which a check fails" is errors.require_none;
    # an argmax anywhere else in the package spells that policy again.
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = _argmax_calls(tree, "require_none" if path.name == "errors.py" else None)
        if found:
            offenders[str(path.relative_to(PACKAGE))] = found
    assert offenders == {}
