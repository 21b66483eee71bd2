"""``tools/compare_outputs.py``: which differences between two output
directories it accepts, and how it names the first one it rejects."""

import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import array_object
from relnet.network import load_checkpoint, save_checkpoint

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


V1_MODEL = Path(__file__).parent / "data" / "model_v1.json"


def checkpoint_dirs(tmp_path, change=None, version=1):
    """Two output directories of one report: ``a`` holds the checkpoint
    ``V1_MODEL`` as version 1 or resaved as version 2, ``b`` its
    version-2 re-save with ``change`` applied to the JSON document."""
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b")
    net, names = load_checkpoint(V1_MODEL)
    for root in (a, b):
        save_checkpoint(net, root / "model.json", task_names=names)
    if version == 1:
        (a / "model.json").write_bytes(V1_MODEL.read_bytes())
    if change is not None:
        doc = json.loads((b / "model.json").read_text())
        change(doc)
        (b / "model.json").write_text(json.dumps(doc))
    return a, b


def compare(a, b, rtol):
    out = io.StringIO()
    return compare_outputs.compare_dirs(a, b, rtol, out), out.getvalue()


def test_v1_and_v2_checkpoints_of_one_net_agree_exactly(tmp_path):
    """Flat weight lists against array objects of the same values pass
    at ``rtol`` 0, and so do two version-2 files of one net."""
    for version in (1, 2):
        (tmp_path / str(version)).mkdir()
        a, b = checkpoint_dirs(tmp_path / str(version), version=version)
        assert compare(a, b, 0.0) == (
            0,
            "2 files agree within rtol 0; largest relative deviation 0\n",
        )


def one_ulp_up(doc):
    """Move entry 3 of the classifier weights up by one ulp."""
    entry = doc["stack"]["layers"][1]
    arr = compare_outputs.check_type(entry["weight"], "list[float]", "w")
    arr.flat[3] = np.nextafter(arr.flat[3], np.inf)
    entry["weight"] = array_object(arr)


@pytest.mark.parametrize("version", [1, 2])
def test_one_ulp_in_an_array_object_is_within_rtol(tmp_path, version):
    """An array object is compared number by number, with a list or
    another array object: one ulp is a deviation within ``rtol``, and
    beyond ``rtol`` 0 the entry is named."""
    a, b = checkpoint_dirs(tmp_path, one_ulp_up, version)
    code, out = compare(a, b, 1e-10)
    assert code == 0, out
    dev = float(out.rsplit(" ", 1)[1])
    assert 0 < dev < 1e-15
    code, out = compare(a, b, 0.0)
    assert code == 1
    assert out.startswith("model.json: $.stack.layers[1].weight[flat 3]: ")


@pytest.mark.parametrize(
    "version, change, named",
    [
        (
            1,
            lambda d: d["trunk"][0].update(bias=array_object([0.5])),
            "$.trunk[0].bias: list of length 2 != array of shape [1]",
        ),
        (
            2,
            lambda d: d["trunk"][0].update(bias=[0.5, 1.0, 2.0]),
            "$.trunk[0].bias: array of shape [2] != list of length 3",
        ),
        (
            2,
            lambda d: d["trunk"][0].update(bias=[[0.5], [1.0]]),
            "$.trunk[0].bias: array of shape [2] != list of length 2",
        ),
        (
            2,
            lambda d: d["trunk"][0].update(bias="none"),
            "$.trunk[0].bias: array of shape [2] != 'none'",
        ),
        (
            2,
            lambda d: d["trunk"][0]["weight"].update(shape=[4, 1]),
            "$.trunk[0].weight: shape [2, 2] != [4, 1]",
        ),
    ],
)
def test_array_object_against_another_shape_or_value(
    tmp_path, version, change, named
):
    a, b = checkpoint_dirs(tmp_path, change, version)
    code, out = compare(a, b, 1e-10)
    assert code == 1
    assert out.startswith(f"model.json: {named}"), out


def test_malformed_array_object_is_unreadable(tmp_path):
    a, b = checkpoint_dirs(
        tmp_path, lambda d: d["trunk"][0]["weight"].update(base64="AAAA")
    )
    code, out = compare(a, b, 1e-10)
    assert code == 1
    assert out.startswith("model.json: unreadable: $.trunk[0].weight.base64 holds 3")
