"""``tools/sweep.py``: a two-point grid of ``relnet train`` runs."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"


def test_two_point_grid_is_one_deterministic_table():
    """Two short ``train-manytask`` runs, at ``prior_weight`` 0 and 1e-3,
    print one row each with the λ 0 run as both rows' baseline, and two
    sweeps print the same bytes."""
    argv = [sys.executable, str(TOOL), "train-manytask",
            "--set", "train.prior_weight=0,1e-3", "--set", "train.epochs=1",
            "--seeds", "3", "--data-seeds", "7"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout
    header, rule, *rows = [line.split(" | ") for line in runs[0].stdout.splitlines()]
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


def test_failed_run_reads_its_exit_code_and_error():
    """A run that fails prints its exit code, ``-`` for every figure and
    its last stderr line, which names the epoch it failed after."""
    argv = [sys.executable, str(TOOL), "train-manytask",
            "--set", "train.learning_rate=1e6", "--set", "train.epochs=1",
            "--seeds", "3", "--data-seeds", "7"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    _, _, row = [line.split(" | ") for line in run.stdout.splitlines()]
    assert row[:9] == ["| 1e6", "1", "7", "3", "3", "-", "-", "-", "-"]
    assert row[9].startswith("relnet train: numeric failure: ")
    assert "after epoch 0:" in row[9]
