"""One operation of each benchmark workload, end to end.

For each workload of ``perfbench/workloads.py``, its ``prepare`` writes
the inputs, ``relnet.cli.main`` runs the command on them in this
process, and the workload's own ``check`` reads the outputs.  A change
that makes the benchmark reject its outputs fails here first.  All
three take about 4 s on a 2-vCPU machine.
"""

import importlib.util
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
