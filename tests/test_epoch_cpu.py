"""``tools/epoch_cpu.py``: one timed epoch or fit of a benchmark workload."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "epoch_cpu.py"


def test_one_timed_epoch_of_train_manytask():
    """The tool builds the workload, warms up and prints the best and
    median CPU microseconds per batch of its timed epochs, then those of
    the gradient kernel alone, then the best and median CPU microseconds
    per epoch of its proximal prior steps, 16 for 250 batches, then the
    best and median CPU milliseconds of its timed scorings of both
    folds."""
    run = subprocess.run(
        [sys.executable, str(TOOL), "train-manytask", "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert re.fullmatch(
        r"train-manytask: 250 batches of 16 rows, 1 timed epoch\(s\), per batch: "
        r"best \d+\.\d us, median \d+\.\d us\n"
        r"train-manytask: gradient kernel alone, 1 timed epoch\(s\), per batch: "
        r"best \d+\.\d us, median \d+\.\d us\n"
        r"train-manytask: prior prox, 16 per epoch, 1 timed epoch\(s\), per epoch: "
        r"best \d+\.\d us, median \d+\.\d us\n"
        r"train-manytask: scoring of 2 fold\(s\) of 4000 \+ 10000 rows, "
        r"1 timed scoring\(s\), per epoch: best \d+\.\d\d ms, median \d+\.\d\d ms\n",
        run.stdout,
    )


def test_one_timed_fit_of_tnd_fit():
    """For ``tnd-fit`` the tool warms up with one fit and prints the best
    and median CPU milliseconds per flip-flop sweep of its timed fits."""
    run = subprocess.run(
        [sys.executable, str(TOOL), "tnd-fit", "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert re.fullmatch(
        r"tnd-fit: 60 samples of dims \(32, 24, 16\), \d+ sweeps per fit, "
        r"1 timed fit\(s\), per sweep: best \d+\.\d\d ms, median \d+\.\d\d ms\n",
        run.stdout,
    )
