"""``tools/sweep.py``: its argument parsing, and grids of ``relnet
train`` runs."""

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"
_spec = importlib.util.spec_from_file_location("sweep", TOOL)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


@pytest.mark.parametrize(
    "text, values",
    [
        ("model.trunk_widths=[],[64,32]", ["[]", "[64,32]"]),
        ("m=[[1, 0.5], [0.5, 1]]", ["[[1, 0.5], [0.5, 1]]"]),
        ('train.lr_schedule="inv","constant"', ['"inv"', '"constant"']),
        ("train.prior_weight=0,1e-6", ["0", "1e-6"]),
        ("train.prior_weight= 0 , 1e-6 ", ["0", "1e-6"]),
    ],
)
def test_setting_splits_json_values_as_written(text, values):
    """Commas inside a list or matrix do not split it; each value keeps
    its text, without the whitespace around it."""
    assert sweep.setting(text) == (text.partition("=")[0], values)


@pytest.mark.parametrize(
    "argv",
    [
        ["--set", "model.trunk_widths=[64,32"],
        ["--set", "train.prior_weight=0,,1"],
        ["--set", "train.prior_weight=0 1"],
        ["--seeds", "12-1"],
    ],
)
def test_malformed_values_and_empty_ranges_are_argument_errors(argv, capsys):
    """A malformed list, an empty value, values not split by a comma and
    a reversed seed range exit 2 before any run."""
    with pytest.raises(SystemExit) as exit_:
        sweep.main(["train-manytask", *argv])
    assert exit_.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_seed_list_rejects_an_empty_range():
    assert sweep.seed_list("1,4-6,9") == [1, 4, 5, 6, 9]
    with pytest.raises(argparse.ArgumentTypeError, match="'12-1'"):
        sweep.seed_list("12-1")


def tables(stdout: str) -> list:
    """The runs table and the summary table of a sweep's output, each as
    its lines split at the cell separators."""
    return [[line.split(" | ") for line in table.splitlines()]
            for table in stdout.split("\n\n")]


def test_summary_gives_the_figures_over_the_runs_that_have_them():
    """A point's summary counts its runs and non-zero exits, and takes
    the median, minimum and interquartile range of each figure over the
    runs that report it; a figure no run reports reads ``-``."""
    runs = [(0, 0.5, 0.1), (3, None, None), (0, 0.7, 0.3), (0, 0.6, 0.2),
            (0, 0.9, 0.25)]
    assert sweep.summary(runs) == [
        "5", "1", "0.6500", "0.5000", "0.1750", "0.2250", "0.1000", "0.0875"
    ]
    assert sweep.summary([(0, 0.5, None), (2, None, None)]) == [
        "2", "1", "0.5000", "0.5000", "0.0000", "-", "-", "-"
    ]


def test_two_point_grid_is_one_deterministic_table():
    """Two short ``train-manytask`` runs, at ``prior_weight`` 0 and 1e-3,
    print one row each with the λ 0 run as both rows' baseline, then one
    summary row per point, and two sweeps print the same bytes."""
    argv = [sys.executable, str(TOOL), "train-manytask",
            "--set", "train.prior_weight=0,1e-3", "--set", "train.epochs=1",
            "--seeds", "3", "--data-seeds", "7"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout
    [header, rule, *rows], [summary_header, _, *summaries] = tables(runs[0].stdout)
    assert header == ["| train.prior_weight", "train.epochs", "data seed", "seed",
                      "exit", "test_acc", "rel_gap", "λ0 test_acc", "λ0 rel_gap",
                      "error |"]
    assert [row[:5] for row in rows] == [
        ["| 0", "1", "7", "3", "0"], ["| 1e-3", "1", "7", "3", "0"]
    ]
    zero, prior = rows
    # The λ 0 row is its own baseline; its relationship is the identity.
    assert zero[5:9] == [zero[5], "0.0000", zero[5], "0.0000"]
    assert prior[7:9] == zero[5:7]
    assert 0.0 < float(prior[5]) <= 1.0
    assert summary_header == [
        "| train.prior_weight", "train.epochs", "runs", "non-zero exits",
        "test_acc median", "test_acc min", "test_acc IQR", "rel_gap median",
        "rel_gap min", "rel_gap IQR |",
    ]
    # One run per point: its figures are the median and the minimum.
    assert summaries == [
        [row[0], "1", "1", "0", row[5], row[5], "0.0000", row[6], row[6], "0.0000 |"]
        for row in rows
    ]


def test_failed_run_reads_its_exit_code_and_error():
    """A run that fails prints its exit code, ``-`` for every figure and
    its last stderr line, which names the epoch it failed after."""
    argv = [sys.executable, str(TOOL), "train-manytask",
            "--set", "train.learning_rate=1e6", "--set", "train.epochs=1",
            "--seeds", "3", "--data-seeds", "7"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    [_, _, row], [_, _, summary] = tables(run.stdout)
    assert row[:9] == ["| 1e6", "1", "7", "3", "3", "-", "-", "-", "-"]
    assert summary == ["| 1e6", "1", "1", "1", "-", "-", "-", "-", "-", "- |"]
    assert row[9].startswith("relnet train: numeric failure: ")
    assert "after epoch 0:" in row[9]


def test_long_value_prints_as_a_short_label():
    """A null run on ``train-manytask`` sets its 40×40
    ``task_covariance`` to the identity: the table cell is the value's
    first 16 characters, ``…`` and 8 hex digits of its SHA-256, the same
    in every sweep, and another matrix gets another label."""
    identity = json.dumps(np.eye(40).tolist())
    _, [value] = sweep.setting("data.synthetic.task_covariance=" + identity)
    digest = hashlib.sha256(value.encode()).hexdigest()[:8]
    assert sweep.label(value) == "[[1.0, 0.0, 0.0,…" + digest
    scaled = json.dumps((2 * np.eye(40)).tolist())
    assert sweep.label(scaled) != sweep.label(value)
    assert sweep.label(scaled[:32]) == scaled[:32]
    assert len(sweep.label(scaled[:33])) == 25
    argv = [sys.executable, str(TOOL), "train-manytask",
            "--set", "data.synthetic.task_covariance=" + identity,
            "--set", "train.epochs=1", "--seeds", "3", "--data-seeds", "7"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    [_, _, row], [_, _, summary] = tables(run.stdout)
    assert row[:5] == ["| " + sweep.label(value), "1", "7", "3", "0"]
    assert summary[0] == row[0]
