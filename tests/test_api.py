"""The public API: README's library quick start runs, the exported names are
frozen, and no module of the package holds process state.

A name leaves rffqudit.__all__ only by editing PUBLIC_NAMES below, so a removal
from the public API is always a deliberate, reviewed change.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import rffqudit
from rffqudit import (
    ChannelConfig,
    ContractViolationError,
    QuditPovm,
    SpinRegister,
    ValidationError,
    born_rule_harness,
    build_coupled_basis,
    decode_payload,
    fourier_coupling,
    multiplicity,
    partial_trace,
    random_density,
    random_povm,
    run_suite,
    sector_index_set,
    sigma,
    validate_coupling,
)
from rffqudit.verify import encoded_random_states, rotation_invariance_residual

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


CACHES = ("cache", "lru_cache")
# The one module-level cache allowed: the CLI's argument parser, which holds
# no result.
ALLOWED_CACHES = {("cli.py", "_build_parser")}


def _is_cache(node: ast.AST) -> bool:
    """node is functools.cache / lru_cache (or a bare cache / lru_cache), or a call of one."""
    if isinstance(node, ast.Call):
        node = node.func
    return ((isinstance(node, ast.Attribute) and node.attr in CACHES
             and isinstance(node.value, ast.Name) and node.value.id == "functools")
            or (isinstance(node, ast.Name) and node.id in CACHES))


def _module_caches(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each module-level function decorated with a cache, and of
    each module-level assignment whose value is a cache or a call of one."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_is_cache(d) for d in node.decorator_list):
                found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if any(_is_cache(n) for n in ast.walk(node.value)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [(node.lineno, ast.unparse(t)) for t in targets]
    return found


def _process_state(tree: ast.AST, module: str = "") -> list[str]:
    """Each `global` statement, each os.environ / os.getenv read and each
    module-level functools cache (bar ALLOWED_CACHES) in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"line {node.lineno}: global {', '.join(node.names)}")
        elif (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"line {node.lineno}: os.{node.attr}")
    found += [f"line {line}: module-level cache {name}"
              for line, name in _module_caches(tree) if (module, name) not in ALLOWED_CACHES]
    return found


def test_the_library_holds_no_process_state():
    # A module-level global, cache or environment read makes a result depend
    # on what ran before in the process, or on the shell it was started from.
    # A process-wide memo of closed forms or index maps would also make a
    # second in-process call cheaper without helping one CLI process.
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        found = _process_state(ast.parse(path.read_text(encoding="utf-8")), module)
        if found:
            offenders[module] = found
    assert offenders == {}


@pytest.mark.parametrize("source, flagged", (
    ("import functools\n@functools.cache\ndef f(n):\n    return n\n", ["f"]),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(n):\n    return n\n",
     ["f"]),
    ("import functools\nf = functools.cache(lambda n: n)\n", ["f"]),
    ("import functools\nf: object = functools.lru_cache(None)(abs)\n", ["f"]),
    ("import functools\ndef g():\n    return functools.cache(lambda n: n)\n", []),
    ("import functools\ndef g():\n    @functools.cache\n    def f(n):\n        return n\n"
     "    return f\n", []),
))
def test_the_process_state_guard_flags_module_level_caches(source, flagged):
    # A cache made inside a function lives as long as its caller keeps it.
    assert [name for _, name in _module_caches(ast.parse(source))] == flagged
    assert len(_process_state(ast.parse(source), "cli.py")) == len(flagged)


def test_the_process_state_guard_allows_only_the_cli_parser_cache():
    source = "import functools\n@functools.cache\ndef _build_parser():\n    return 1\n"
    assert _process_state(ast.parse(source), "cli.py") == []
    assert _process_state(ast.parse(source), "verify.py") == [
        "line 3: module-level cache _build_parser"]


SEEDING_NAMES = {"SeedSequence", "default_rng", "PCG64"}


def test_every_stream_is_seeded_by_the_seeding_helper():
    # One path from a seed to its stream: spinsys.seeded_generator. Every
    # draw of a call, the channel's trials included, reads that one stream.
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helpers = {id(node) for function in ast.walk(tree)
                   if isinstance(function, ast.FunctionDef) and path.name == "spinsys.py"
                   and function.name == "seeded_generator"
                   for node in ast.walk(function)}
        found = [node.lineno for node in ast.walk(tree) if id(node) not in helpers
                 and (getattr(node, "attr", None) in SEEDING_NAMES
                      or getattr(node, "id", None) in SEEDING_NAMES)]
        if found:
            offenders[str(path.relative_to(PACKAGE))] = found
    assert offenders == {}


def _bytes_divisions(tree: ast.AST) -> list[int]:
    """The line of each floor division in tree with a *_BYTES name in an operand."""
    def operands(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
            return node.left, node.right
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.FloorDiv):
            return node.target, node.value
        return ()

    return [node.lineno for node in ast.walk(tree)
            if any(str(getattr(name, "id", getattr(name, "attr", ""))).endswith("_BYTES")
                   for side in operands(node) for name in ast.walk(side))]


@pytest.mark.parametrize("source, flagged", (
    ("step = max(1, ROW_BLOCK_BYTES // size)\n", [1]),
    ("step = coupling.CHUNK_BYTES // size\n", [1]),
    ("step = size // (2 * CHUNK_BYTES)\n", [1]),
    ("step = 8\nstep //= CHUNK_BYTES\n", [2]),
    ("step = max(1, budget // item_bytes)\n", []),
    ("half = CHUNK_BYTES / 2\n", []),
))
def test_the_chunk_guard_flags_floor_divisions_by_a_byte_budget(source, flagged):
    assert _bytes_divisions(ast.parse(source)) == flagged


def test_chunk_arithmetic_lives_in_one_helper():
    # "Chunks of at most so many bytes, at least one item each" is
    # coupling._chunks, which takes its budget as an argument; a floor
    # division by a *_BYTES budget anywhere else spells that rule again.
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        found = _bytes_divisions(ast.parse(path.read_text(encoding="utf-8")))
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


# Public sizes that go through errors.require_integer: the call on one value,
# the parameter it names, and a valid value.
PUBLIC_SIZES = {
    "random_density:d": (lambda v: random_density(np.random.default_rng(0), v), "d", 2),
    "random_povm:d": (lambda v: random_povm(np.random.default_rng(0), v, 3), "d", 2),
    "random_povm:elements": (lambda v: random_povm(np.random.default_rng(0), 2, v),
                             "elements", 3),
    "fourier_coupling:n": (fourier_coupling, "n", 3),
    "multiplicity:n": (lambda v: multiplicity(v, 0.5), "n", 3),
    "sector_index_set:n": (sector_index_set, "n", 3),
    "sigma:site": (lambda v: sigma(SpinRegister(3), v, "x"), "site", 2),
}


def _kept(value):
    """value with NumPy arrays, POVMs and Fractions as nested lists and tuples, whose
    repr shows any NumPy scalar."""
    if isinstance(value, list):  # sector_index_set's Fractions
        return [(j.numerator, j.denominator) for j in value]
    if isinstance(value, QuditPovm):
        return [e.tolist() for e in value.elements]
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("bad", (3.0, True, "3", None))
@pytest.mark.parametrize("size", PUBLIC_SIZES)
def test_public_sizes_follow_the_one_integer_rule(size, bad):
    call, name, valid = PUBLIC_SIZES[size]
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {bad!r}$"):
        call(bad)
    # A NumPy integer is kept as a Python int: the same result, no NumPy scalar in it.
    assert repr(_kept(call(np.int64(valid)))) == repr(_kept(call(valid)))


def _qs3():
    return build_coupled_basis(SpinRegister(3))


def _fixed(axis=(0, 0, 1), angle=1.0):
    return ChannelConfig(n=3, trials=1, seed=0, noise="fixed", axis=axis, angle=angle)


# Public inputs refused by name: the call on a basis at n = 3, the error and its text.
REFUSED = {
    "matrix-unit:lambda=0": (lambda qs: qs(0, 1), ValidationError,
                             r"lambda must be >= 1, got 0"),
    "matrix-unit:lambda'=0": (lambda qs: qs(1, 0), ValidationError,
                              r"lambda' must be >= 1, got 0"),
    "matrix-unit:lambda=True": (lambda qs: qs(True, 1), ValidationError,
                                r"lambda must be an integer, got True"),
    "matrix-unit:lambda=3": (lambda qs: qs(3, 1), ContractViolationError,
                             r"no matrix unit \(lambda=3, lambda'=1\)"),
    "ket:lambda=True": (lambda qs: qs.ket(0.5, True), ValidationError,
                        r"lambda must be an integer, got True"),
    "ket:lambda=1.0": (lambda qs: qs.ket(0.5, 1.0), ValidationError,
                       r"lambda must be an integer, got 1\.0"),
    "born_rule_harness:trials": (lambda qs: born_rule_harness(qs, 2.0, 1), ValidationError,
                                 r"trials must be an integer, got 2\.0"),
    "rotation_invariance_residual:trials": (
        lambda qs: rotation_invariance_residual(qs, True), ValidationError,
        r"trials must be an integer, got True"),
    "encoded_random_states:trials": (lambda qs: encoded_random_states(qs, "2"), ValidationError,
                                     r"trials must be an integer, got '2'"),
    "validate_coupling:nan": (lambda qs: validate_coupling(np.full((3, 3), np.nan), 3),
                              ValidationError,
                              r"coupling matrix is not unitary within 1e-12 \(deviation nan\)"),
    "ChannelConfig:angle=True": (lambda qs: _fixed(angle=True), ValidationError,
                                 r"fixed-noise angle must be a real number, got True"),
    "ChannelConfig:angle='1'": (lambda qs: _fixed(angle="1"), ValidationError,
                                r"fixed-noise angle must be a real number, got '1'"),
    "ChannelConfig:axis='abc'": (lambda qs: _fixed(axis="abc"), ValidationError,
                                 r"fixed-noise axis must be a real number, got 'a'"),
    "ChannelConfig:axis=bools": (lambda qs: _fixed(axis=(False, False, True)), ValidationError,
                                 r"fixed-noise axis must be a real number, got False"),
    "ChannelConfig:width=True": (
        lambda qs: ChannelConfig(n=3, trials=1, seed=0, noise="dephasing", width=True),
        ValidationError, r"dephasing-noise width must be a real number, got True"),
    "ChannelConfig:width='1'": (
        lambda qs: ChannelConfig(n=3, trials=1, seed=0, noise="dephasing", width="1"),
        ValidationError, r"dephasing-noise width must be a real number, got '1'"),
    "run_suite:tol=True": (lambda qs: run_suite("hws", tol=True, n_values=[3]),
                           ValidationError, r"tol must be a real number, got True"),
    "run_suite:tol='1'": (lambda qs: run_suite("hws", tol="1", n_values=[3]),
                          ValidationError, r"tol must be a real number, got '1'"),
    "decode_payload:shape": (lambda qs: decode_payload(qs, np.eye(4)), ValidationError,
                             r"payload must be 8x8 \(2\*\*n for n=3\), got \(4, 4\)"),
    "partial_trace:n_factors": (lambda qs: partial_trace(np.eye(4), 2.0, 1), ValidationError,
                                r"n_factors must be an integer, got 2\.0"),
    "partial_trace:traced_factor": (lambda qs: partial_trace(np.eye(4), 2, 1.0),
                                    ValidationError,
                                    r"traced_factor must be an integer, got 1\.0"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_public_inputs_are_refused_by_name(case):
    call, error, text = REFUSED[case]
    with pytest.raises(error, match=f"^{text}$"):
        call(_qs3())


def test_numpy_integer_labels_and_counts_are_kept_as_ints():
    qs = _qs3()
    assert np.array_equal(qs(np.int64(1), 2), qs(1, 2))
    assert np.array_equal(qs.ket(0.5, np.int64(2)), qs.ket(0.5, 2))
    report = born_rule_harness(qs, np.int64(2), 1)
    assert type(report.trials) is int and report == born_rule_harness(qs, 2, 1)
    assert rotation_invariance_residual(qs, np.int64(2)) == rotation_invariance_residual(qs, 2)
    assert type(run_suite("hws", tol=np.float64(1e-9), n_values=[3])[0].tolerance) is float
