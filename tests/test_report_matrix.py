"""tools/report_matrix.py: the report matrix and its reading of a byte move."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_matrix.py"
spec = importlib.util.spec_from_file_location("report_matrix", TOOL)
report_matrix = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_matrix)


def test_largest_move_reads_the_numbers_that_differ():
    old = '{"fidelity": 0.9999999999999998, "trial": 3, "x": [1e-16, -2.5E+3]}'
    new = '{"fidelity": 1.0000000000000002, "trial": 3, "x": [2e-16, -2.5E+3]}'
    assert report_matrix.largest_move(old, new) == "largest move 4.4e-16 over 2 numbers"
    assert report_matrix.largest_move("a,1.0\r\n", "a,NaN\r\n") == "a number turns non-finite"
    assert report_matrix.largest_move('{"a": 1}', '{"b": 1}') == (
        "the text differs outside its numbers")


def test_the_matrix_covers_every_command_in_both_formats(tmp_path):
    runs = report_matrix.matrix(tmp_path)
    commands = {run[0] for run in runs}
    assert commands == {"verify", "channel", "census", "basis", "encode"}
    assert len([run for run in runs if run[0] == "verify"]) == 8  # four seeds, two formats
    # 3 modes, 3 sizes, 2 formats, and one trial in 2 formats
    assert len([run for run in runs if run[0] == "channel"]) == 20
    # a state alone and a state with a POVM, two formats: the CSV of the first is
    # its state payload, that of the second the Born table alone
    assert len([run for run in runs if run[0] == "encode"]) == 4
    report_matrix.write_inputs(tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {"state.json", "povm.json"}
