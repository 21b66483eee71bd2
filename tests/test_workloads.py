"""One operation of each benchmark workload, end to end.

For each workload of ``perfbench/workloads.py``, its ``prepare`` writes
the inputs, ``relnet.cli.main`` runs the command on them in this
process, and the workload's own ``check`` reads the outputs.  A change
that makes the benchmark reject its outputs fails here first.  All
three take about 4 s on a 2-vCPU machine.  One more test runs
``train-wide`` at two BLAS thread counts, for the scope README gives
byte-identity.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relnet.cli import main

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


def _workloads():
    """``perfbench/workloads.py``'s ``WORKLOADS``, loaded from its file."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_operation_passes_the_workloads_checks(name, tmp_path):
    """The command exits 0, the workload's checks find no error, and
    every deterministic metric it defines has a value."""
    workload = WORKLOADS[name]
    work, out = tmp_path / "work", tmp_path / "out"
    work.mkdir()
    argv = workload.prepare(work, SEED) + workload.output_args(out)
    assert main(argv) == 0
    errors, metrics, files = workload.check(out)
    assert errors == []
    assert None not in metrics.values()
    assert files and all(path.is_file() for path in files)


def test_train_outputs_agree_across_blas_thread_counts(tmp_path):
    """``relnet train`` on ``train-wide``'s inputs, in two processes at one
    and two BLAS threads, writes outputs that ``tools/compare_outputs.py``
    finds equal within 1e-12 relative: README promises byte-identity only
    at a fixed thread count, and only rounding may differ across counts."""
    workload = WORKLOADS["train-wide"]
    argv = workload.prepare(tmp_path, SEED)
    outs = [tmp_path / "out1", tmp_path / "out2"]
    for threads, out in zip(("1", "2"), outs):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "relnet", *argv, *workload.output_args(out)],
            env=env,
            check=True,
            capture_output=True,
            # The child finds the package from the directory holding it.
            cwd=ROOT / "src",
        )
    tool = ROOT / "tools" / "compare_outputs.py"
    compare = subprocess.run(
        [sys.executable, tool, *outs, "--rtol", "1e-12"],
        capture_output=True,
        text=True,
    )
    assert compare.returncode == 0, compare.stdout + compare.stderr
