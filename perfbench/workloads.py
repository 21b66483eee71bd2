"""The benchmark's workloads: input generation, command line, and the
correctness checks and deterministic metrics of one operation.

Inputs are generated here with numpy alone, from the benchmark seed,
so that a change to the program cannot change what it is fed.  The one
exception is ``train-manytask``, whose data the program generates
itself from ``data.synthetic`` in the config: that in-process
generation is part of the set-up being measured.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# The benchmark seed drives the data; training always starts from the
# program's default seed 0.  Across training seeds 1-12, three inits of
# the width-8 bottleneck converge slowly (rel_gap 0.11-0.16 against
# 0.19-0.24 after 20 epochs), which spreads the quality metrics across
# seeds by more than any bound they could be given.
TRAIN_COMMON = {
    "learning_rate": 0.01,
    "momentum": 0.5,
    "batch_size": 16,
    "epsilon_ridge": 1.0,
    "seed": 0,
}


def _dump(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


class Workload:
    """One operation type.

    ``prepare`` writes the inputs into ``work`` and returns the
    ``relnet`` arguments minus the output path; ``check`` returns
    ``(errors, deterministic metrics, files that must repeat byte for
    byte)``.  ``metrics`` names the end-to-end metrics the workload
    defines; ``epochs`` is the number of SGD epochs (0 without SGD).
    """

    name = ""
    metrics = ("setup_s", "run_s", "peak_rss_mb")
    epochs = 0

    def prepare(self, work: Path, seed: int) -> list:
        raise NotImplementedError

    def output_args(self, out: Path) -> list:
        return ["--out", str(out)]

    def check(self, out: Path) -> tuple:
        raise NotImplementedError


def _check_train(out: Path, epochs: int, num_tasks: int) -> tuple:
    """Checks shared by both train workloads.

    Returns ``(errors, mean final test accuracy, correlation matrices,
    files that must repeat byte for byte)``.
    """
    errors = []
    report = out / "report.csv"
    rels = sorted(out.glob("relationship_*.json"))
    if not report.is_file():
        return ["report.csv missing"], None, {}, []
    lines = report.read_text(encoding="utf-8").rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [str(e) for e in range(1, epochs + 1)]:
        errors.append(f"report.csv: expected epochs 1..{epochs}")
    try:
        values = np.array([[float(v) for v in r] for r in rows])
    except ValueError:
        return errors + ["report.csv: ragged or non-numeric rows"], None, {}, []
    if values.ndim != 2 or values.shape[1] != len(header) or not len(values):
        return errors + ["report.csv: ragged or empty"], None, {}, []
    if not np.isfinite(values).all():
        errors.append("report.csv: non-finite values")
    test_cols = [i for i, h in enumerate(header) if h.startswith("test_acc_")]
    if len(test_cols) != num_tasks:
        errors.append(f"report.csv: {len(test_cols)} test accuracy columns")
        test_acc = None
    else:
        test_acc = float(np.mean(values[-1, test_cols]))
    if not rels:
        errors.append("no relationship files")
    corrs = {}
    for path in rels:
        c = np.asarray(json.loads(path.read_text())["correlation"], dtype=float)
        if c.shape != (num_tasks, num_tasks):
            errors.append(f"{path.name}: shape {c.shape}")
            continue
        if not (
            np.array_equal(c, c.T)
            and np.all(np.diag(c) == 1.0)
            and np.all(np.abs(c) <= 1.0)
        ):
            errors.append(f"{path.name}: not a correlation matrix")
        corrs[path.stem] = c
    timings = out / "timings.csv"
    if not timings.is_file() or len(timings.read_text().split()) != epochs + 1:
        errors.append("timings.csv missing or short")
    return errors, test_acc, corrs, [report, *rels]


def sgd_seconds(out: Path) -> float:
    """Total ``sgd_seconds`` column of the program's ``timings.csv``."""
    lines = (out / "timings.csv").read_text().split()
    col = lines[0].split(",").index("sgd_seconds")
    return sum(float(line.split(",")[col]) for line in lines[1:])


class TrainWide(Workload):
    """Few tasks, wide layers: the per-batch prior gradient dominates."""

    name = "train-wide"
    metrics = Workload.metrics + ("sgd_rows_per_s", "test_acc")
    tasks, rows, features, classes = 4, 1000, 256, 5
    # The acceptance test's structure: three tasks related at 0.9, one
    # unrelated.
    task_covariance = [
        [1.0, 0.9, 0.9, 0.0],
        [0.9, 1.0, 0.9, 0.0],
        [0.9, 0.9, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
    epochs = 3

    def prepare(self, work: Path, seed: int) -> list:
        rng = np.random.default_rng([seed, 1])
        chol = np.linalg.cholesky(np.asarray(self.task_covariance))
        # Ground-truth weights: identity feature and class factors, the
        # planted task factor along the last mode.
        w = rng.standard_normal((self.features, self.classes, self.tasks)) @ chol.T
        data = work / "data"
        data.mkdir()
        tasks = []
        for t in range(self.tasks):
            x = rng.standard_normal((self.rows, self.features))
            z = x @ w[:, :, t]
            p = np.exp(z - z.max(axis=1, keepdims=True))
            cum = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
            y = (cum > rng.random((self.rows, 1))).argmax(axis=1)
            counts = np.bincount(y, minlength=self.classes)
            # The stratified split needs every class in every task.
            if counts.min() == 0:
                raise RuntimeError(f"seed {seed}: task {t} lacks a class")
            table = np.column_stack([x, y])
            fmt = ["%.8g"] * self.features + ["%d"]
            np.savetxt(data / f"task{t}.csv", table, fmt=fmt, delimiter=",")
            tasks.append({"name": f"task{t}", "path": f"task{t}.csv"})
        _dump(
            {
                "schema_version": 1,
                "num_classes": self.classes,
                "feature_dim": self.features,
                "tasks": tasks,
            },
            data / "manifest.json",
        )
        config = work / "config.json"
        _dump(
            {
                "schema_version": 1,
                "variant": "drn",
                "data": {"manifest": "data/manifest.json"},
                "split": {"train_fraction": 0.5, "stratified": True, "seed": seed},
                "model": {"trunk_widths": [256], "bottleneck_width": 64},
                "train": {
                    **TRAIN_COMMON,
                    "epochs": self.epochs,
                    "prior_weight": 3e-5,
                },
            },
            config,
        )
        return ["train", "--config", str(config)]

    def check(self, out: Path) -> tuple:
        errors, test_acc, _, files = _check_train(out, self.epochs, self.tasks)
        return errors, {"test_acc": test_acc}, files


class TrainManyTask(Workload):
    """Many tasks, narrow layers: per-task Python work dominates."""

    name = "train-manytask"
    metrics = Workload.metrics + ("sgd_rows_per_s", "test_acc", "rel_gap")
    tasks, group_size, correlation = 40, 4, 0.8
    rows, test_rows = 100, 250
    # rel_gap levels off after about 20 epochs.
    epochs = 20
    groups = np.arange(tasks) // group_size

    def prepare(self, work: Path, seed: int) -> list:
        same = self.groups[:, None] == self.groups[None, :]
        omega = np.where(same, self.correlation, 0.0)
        np.fill_diagonal(omega, 1.0)
        config = work / "config.json"
        _dump(
            {
                "schema_version": 1,
                "variant": "drn",
                "data": {
                    "synthetic": {
                        "num_tasks": self.tasks,
                        "feature_dim": 20,
                        "num_classes": 3,
                        "samples_per_task": self.rows,
                        "task_covariance": omega.tolist(),
                        "seed": seed,
                        "test_samples_per_task": self.test_rows,
                    }
                },
                "model": {"trunk_widths": [], "bottleneck_width": 8},
                "train": {
                    **TRAIN_COMMON,
                    "epochs": self.epochs,
                    "prior_weight": 1e-3,
                },
            },
            config,
        )
        return ["train", "--config", str(config)]

    def check(self, out: Path) -> tuple:
        errors, test_acc, corrs, files = _check_train(out, self.epochs, self.tasks)
        rel_gap = None
        c = corrs.get("relationship_bottleneck")
        if c is None:
            errors.append("relationship_bottleneck.json missing")
        else:
            same = self.groups[:, None] == self.groups[None, :]
            off_diag = ~np.eye(self.tasks, dtype=bool)
            rel_gap = float(c[same & off_diag].mean() - c[~same].mean())
        return errors, {"test_acc": test_acc, "rel_gap": rel_gap}, files


class TndFit(Workload):
    """No network and no SGD: the estimator and the JSON read path."""

    name = "tnd-fit"
    metrics = Workload.metrics + ("fit_loglik",)
    dims, samples, condition = (32, 24, 16), 60, 1e3

    def prepare(self, work: Path, seed: int) -> list:
        rng = np.random.default_rng([seed, 3])
        roots = []
        for d in self.dims:
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            # Eigenvalues spread over the condition number, largest 1, so
            # the fitted log-likelihood per entry is well above zero.
            eig = np.logspace(0.0, -math.log10(self.condition), d)
            roots.append(q * np.sqrt(eig))
        z = rng.standard_normal((self.samples, *self.dims))
        x = np.einsum("ai,bj,ck,nijk->nabc", *roots, z, optimize=True)
        x += 0.1 * rng.standard_normal(self.dims)
        path = work / "samples.json"
        doc = {"dims": list(self.dims), "samples": x.reshape(self.samples, -1).tolist()}
        path.write_text(json.dumps(doc), encoding="utf-8")
        return ["tnd-fit", "--input", str(path)]

    def output_args(self, out: Path) -> list:
        out.mkdir()
        return ["--out", str(out / "fit.json")]

    def check(self, out: Path) -> tuple:
        path = out / "fit.json"
        if not path.is_file():
            return ["fit.json missing"], {"fit_loglik": None}, []
        doc = json.loads(path.read_text())
        errors = []
        if doc.get("converged") is not True:
            errors.append("fit did not converge")
        for k, f in enumerate(doc.get("factors", [])):
            m = np.asarray(f, dtype=float)
            if abs(np.trace(m) - 1.0) > 1e-9:
                errors.append(f"factor {k}: trace {np.trace(m)}")
            if not np.array_equal(m, m.T) or np.linalg.eigvalsh(m).min() <= 0:
                errors.append(f"factor {k}: not SPD")
        if len(doc.get("factors", [])) != 3:
            errors.append("expected three factors")
        n_d = self.samples * math.prod(self.dims)
        return errors, {"fit_loglik": doc["log_likelihood"] / n_d}, [path]


WORKLOADS = {w.name: w for w in (TrainWide(), TrainManyTask(), TndFit())}
