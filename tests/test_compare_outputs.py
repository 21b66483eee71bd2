"""``tools/compare_outputs.py``: which differences between two output
directories it accepts, and how it names the first one it rejects."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

REPORT = [
    ["epoch", "objective", "train_acc_a", "test_acc_a", "residual_classifier"],
    ["1", "12.5", "0.5", "0.25", "0.75"],
    ["2", "11.25", "0.75", "0.5", "1.0000000000000001e-05"],
]
MODEL = {
    "num_tasks": 1,
    "task_names": ["a"],
    "stack": {"weight": [0.5, -1.25, 1e-17], "activation": "softmax"},
}


def write_outputs(root: Path, report=REPORT, model=MODEL, timings="epoch\n1\n"):
    root.mkdir()
    (root / "report.csv").write_text("\n".join(",".join(r) for r in report) + "\n")
    (root / "model.json").write_text(json.dumps(model))
    (root / "timings.csv").write_text(timings)
    return root


def run(tmp_path, report=REPORT, model=MODEL, timings="epoch\n2\n", rtol=1e-10):
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b", report, model, timings)
    out = io.StringIO()
    return compare_outputs.compare_dirs(a, b, rtol, out), out.getvalue()


def with_cell(row, col, text):
    rows = [list(r) for r in REPORT]
    rows[row][col] = text
    return rows


def test_identical_outputs_agree_and_timings_are_ignored(tmp_path):
    code, out = run(tmp_path)
    assert code == 0
    assert "2 files agree" in out and "largest relative deviation 0" in out


def test_rounding_within_rtol_agrees(tmp_path):
    model = json.loads(json.dumps(MODEL))
    # Judged against the list's largest entry, 1.25, not against itself.
    model["stack"]["weight"][2] = 3e-17
    code, out = run(tmp_path, with_cell(1, 1, "12.500000000001"), model)
    assert code == 0, out
    assert "largest relative deviation 8e-14" in out


def test_number_beyond_rtol_names_the_cell(tmp_path):
    code, out = run(tmp_path, with_cell(2, 4, "1.1e-05"))
    assert code == 1
    assert out.startswith("report.csv: row 2, column 'residual_classifier': ")


@pytest.mark.parametrize("column", [2, 3])
def test_accuracy_cells_must_match_exactly(tmp_path, column):
    name = REPORT[0][column]
    code, out = run(tmp_path, with_cell(1, column, REPORT[1][column] + "0000001"))
    assert code == 1
    assert f"report.csv: row 1, column '{name}'" in out


@pytest.mark.parametrize(
    "change, named",
    [
        (lambda m: m.update(task_names=["b"]), "$.task_names[0]: 'a' != 'b'"),
        (lambda m: m["stack"].pop("activation"), "$.stack: keys"),
        (lambda m: m["stack"]["weight"].append(0.0), "$.stack.weight: length 3 != 4"),
        (
            lambda m: m["stack"].update(weight=[0.5, -1.0, 0.0]),
            "$.stack.weight[flat 1]",
        ),
        (lambda m: m.update(num_tasks=True), "$.num_tasks: 1 != True"),
    ],
)
def test_json_difference_names_the_path(tmp_path, change, named):
    model = json.loads(json.dumps(MODEL))
    change(model)
    code, out = run(tmp_path, model=model)
    assert code == 1
    assert out.startswith(f"model.json: {named}")


def test_header_and_file_set_must_match(tmp_path):
    code, out = run(tmp_path, with_cell(0, 1, "loss"))
    assert code == 1 and "report.csv: header" in out
    a = write_outputs(tmp_path / "c")
    b = write_outputs(tmp_path / "d")
    (b / "relationship_classifier.json").write_text("{}")
    out = io.StringIO()
    assert compare_outputs.compare_dirs(a, b, 1e-10, out) == 1
    assert out.getvalue().startswith("relationship_classifier.json: only in")


def test_command_line_exit_codes(tmp_path, capsys):
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b", report=with_cell(1, 1, "12.5001"))
    assert compare_outputs.main([str(a), str(a)]) == 0
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert compare_outputs.main([str(a), str(b), "--rtol", "1e-3"]) == 0
    assert "row 1, column 'objective'" in capsys.readouterr().out
