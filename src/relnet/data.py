"""Multi-task dataset handling.

A dataset is a list of per-task example sets over a shared feature
space and class set.  Tasks never share rows; only the model couples
them.  CSV files hold one task each, one example per row, features
first and the integer class label last.

The synthetic generator draws ground-truth classifier weights for all
tasks jointly from a tensor normal whose task-mode factor is the
designed relationship matrix, then samples Gaussian features and
softmax labels per task.  It is the controlled setting where learned
task relationships can be compared against a known one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import softmax
from .serialize import (
    InputError,
    check_type,
    dump_json,
    format_floats,
    load_json,
    open_text,
)
from .tensor_normal import KronCovariance, SpdFactor, TensorNormal, sample

__all__ = [
    "DatasetError",
    "SplitError",
    "MultiTaskDataset",
    "SplitSpec",
    "SyntheticSpec",
    "load_csv",
    "write_csv",
    "load_manifest",
    "write_manifest",
    "split",
    "generate_synthetic",
    "sample_task_data",
]

MANIFEST_SCHEMA_VERSION = 1


class DatasetError(InputError):
    """Malformed dataset input (file, row or shape problems)."""


class SplitError(InputError):
    """A requested split is infeasible for the given data."""


@dataclass
class MultiTaskDataset:
    """Per-task feature matrices and label vectors.

    ``features[t]`` has shape ``(N_t, D)`` with one shared ``D``;
    ``labels[t]`` holds ints in ``[0, num_classes)``.
    """

    task_names: list
    features: list
    labels: list
    num_classes: int

    def __post_init__(self):
        if not self.task_names:
            raise DatasetError("need at least one task")
        for name in self.task_names:
            if not isinstance(name, str) or not name or "," in name:
                raise DatasetError(f"bad task name {name!r}")
        if len(set(self.task_names)) != len(self.task_names):
            raise DatasetError("task names must be unique")
        if not (len(self.features) == len(self.labels) == len(self.task_names)):
            raise DatasetError("need features and labels for every task")
        if self.num_classes < 2:
            raise DatasetError("need at least two classes")
        self.features = [np.asarray(x, dtype=float) for x in self.features]
        self.labels = [np.asarray(y, dtype=int) for y in self.labels]
        dim = None
        for name, x, y in zip(self.task_names, self.features, self.labels):
            if x.ndim != 2 or x.shape[0] == 0:
                raise DatasetError(f"task {name!r}: features must be a non-empty matrix")
            if dim is None:
                dim = x.shape[1]
            elif x.shape[1] != dim:
                raise DatasetError(
                    f"task {name!r}: feature dim {x.shape[1]} != {dim}"
                )
            if y.shape != (x.shape[0],):
                raise DatasetError(f"task {name!r}: one label per row required")
            if y.size and (y.min() < 0 or y.max() >= self.num_classes):
                raise DatasetError(
                    f"task {name!r}: labels must lie in [0, {self.num_classes})"
                )

    @property
    def num_tasks(self) -> int:
        return len(self.task_names)

    @property
    def feature_dim(self) -> int:
        return self.features[0].shape[1]

    @property
    def task_sizes(self) -> tuple:
        return tuple(x.shape[0] for x in self.features)

    def subset(self, indices_per_task) -> "MultiTaskDataset":
        """New dataset keeping the given row indices of every task."""
        feats, labs = [], []
        for x, y, idx in zip(self.features, self.labels, indices_per_task):
            idx = np.asarray(idx, dtype=int)
            feats.append(x[idx])
            labs.append(y[idx])
        return MultiTaskDataset(list(self.task_names), feats, labs, self.num_classes)


def _parse_csv_lines(path, num_classes: int):
    """Parse a task CSV one line at a time; the reference grammar.

    Blank lines are skipped and each line is stripped before it is split
    at commas.  Features go through ``float`` and the label through
    ``int``, so the label is a base-10 integer and ``2.0`` is rejected.
    The first rejected line raises :class:`DatasetError` naming
    ``path:line``.
    """
    rows, labels, linenos = [], [], []
    width = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
                if width < 2:
                    raise DatasetError(
                        f"{path}:{lineno}: need at least one feature and a label"
                    )
            elif len(fields) != width:
                raise DatasetError(
                    f"{path}:{lineno}: expected {width} fields, got {len(fields)}"
                )
            try:
                rows.append([float(v) for v in fields[:-1]])
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: non-numeric feature value"
                ) from None
            try:
                label = int(fields[-1])
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: label must be an integer"
                ) from None
            if not 0 <= label < num_classes:
                raise DatasetError(
                    f"{path}:{lineno}: label {label} out of [0, {num_classes})"
                )
            labels.append(label)
            linenos.append(lineno)
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    x = np.array(rows, dtype=float)
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise DatasetError(
            f"{path}:{linenos[int(bad.argmax())]}: non-finite feature value"
        )
    return x, np.array(labels, dtype=int)


def _parse_csv_fast(path, num_classes: int):
    """Parse a task CSV in one ``np.loadtxt`` pass, or return ``None``.

    The row layout comes from the first non-blank line: ``D`` float64
    feature columns and an int64 label column, so the label is parsed as
    an integer in the same pass.  ``None`` means the file failed the
    parse (a numpy error or warning, a decode error) or a whole-array
    check (label range, finite features); the line parser then decides,
    so this path accepts only what that parser accepts.
    """
    try:
        with open_text(path) as fh:
            first = next((line for line in fh if line.strip()), "")
            width = first.count(",")
            if width < 1:
                return None
            fh.seek(0)
            row = np.dtype([("x", np.float64, (width,)), ("y", np.int64)])
            # numpy before 2.0 parses a label such as 2.0 into an integer
            # with a DeprecationWarning; as an error it rejects the file.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(
                    fh, dtype=row, delimiter=",", comments=None, ndmin=1
                )
    except (ValueError, Warning):
        return None
    y = rows["y"]
    if y.min() < 0 or y.max() >= num_classes or not np.isfinite(rows["x"]).all():
        return None
    return np.ascontiguousarray(rows["x"]), np.ascontiguousarray(y)


def load_csv(paths, num_classes: int, task_names=None) -> MultiTaskDataset:
    """Load one CSV file per task.

    Rows are ``x1,...,xD,label``: blank lines are skipped, fields are
    stripped, features are finite floats, the label is a base-10 integer
    in ``[0, num_classes)`` and ``#`` starts no comment.  A file is read
    in one vectorized pass; only a file that pass rejects is read again
    line by line, to name the bad line.  An unreadable or non-UTF-8
    file, or malformed content, raises :class:`DatasetError` naming the
    file (and line).  Task names default to the file stems.
    """
    paths = [Path(p) for p in paths]
    if task_names is None:
        task_names = [p.stem for p in paths]
    feats, labs = [], []
    for path in paths:
        try:
            x, y = _parse_csv_fast(path, num_classes) or _parse_csv_lines(
                path, num_classes
            )
        except InputError as exc:
            raise DatasetError(str(exc)) from None
        feats.append(x)
        labs.append(y)
    return MultiTaskDataset(list(task_names), feats, labs, int(num_classes))


def write_csv(ds: MultiTaskDataset, paths) -> None:
    """Write one CSV per task; floats carry 17 significant digits so a
    load/write cycle reproduces the numeric content exactly."""
    if len(paths) != ds.num_tasks:
        raise ValueError("need one path per task")
    for path, x, y in zip(paths, ds.features, ds.labels):
        lines = [
            f"{format_floats(row, ',')},{int(label)}" for row, label in zip(x, y)
        ]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def load_manifest(path) -> MultiTaskDataset:
    """Load a dataset described by a manifest JSON.

    The manifest lists task names and CSV paths (relative to its own
    directory) plus the class count; the feature dim, when present, is
    validated against the loaded data.  Both counts must be JSON
    integers (:func:`~relnet.serialize.check_type`).  Every error names
    the manifest: one from a task file or from the tasks it lists reads
    ``<manifest>: <message of load_csv>``.
    """
    path = Path(path)
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise DatasetError(f"{path}: manifest must be a JSON object")
    if doc.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise DatasetError(
            f"{path}: unsupported manifest schema {doc.get('schema_version')!r}"
        )
    try:
        num_classes = check_type(doc["num_classes"], "int", "num_classes")
        tasks = doc["tasks"]
        names = [entry["name"] for entry in tasks]
        files = [path.parent / entry["path"] for entry in tasks]
        feature_dim = check_type(doc.get("feature_dim", 0), "int", "feature_dim")
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: malformed manifest: {exc}") from None
    try:
        ds = load_csv(files, num_classes, task_names=names)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    if "feature_dim" in doc and feature_dim != ds.feature_dim:
        raise DatasetError(
            f"{path}: manifest feature_dim {doc['feature_dim']} != data "
            f"{ds.feature_dim}"
        )
    return ds


def write_manifest(ds: MultiTaskDataset, directory) -> Path:
    """Write per-task CSVs and ``manifest.json`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"{task}.csv" for task in ds.task_names]
    write_csv(ds, paths)
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "num_classes": ds.num_classes,
        "feature_dim": ds.feature_dim,
        "tasks": [
            {"name": task, "path": p.name}
            for task, p in zip(ds.task_names, paths)
        ],
    }
    manifest_path = directory / "manifest.json"
    dump_json(doc, manifest_path)
    return manifest_path


@dataclass
class SplitSpec:
    """Per-task train/test split parameters.

    A bad value raises :class:`SplitError` whose message starts with the
    field's name.
    """

    train_fraction: float
    stratified: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise SplitError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )
        if self.seed < 0:
            raise SplitError(f"seed must be non-negative, got {self.seed}")


def _round_count(fraction: float, n: int) -> int:
    return int(np.floor(fraction * n + 0.5))


def split(ds: MultiTaskDataset, spec: SplitSpec) -> tuple:
    """Split every task into train and test folds.

    Unstratified splits draw ``round(fraction * N_t)`` rows per task and
    require ``N_t >= 1/fraction``.  Stratified splits sample per class,
    keeping at least one training example of every class present;
    every class must be non-empty in every task.  Task ``t`` uses its
    own child generator of ``spec.seed``, so adding a task does not
    reshuffle the others.  Both folds must end up non-empty for every
    task; a fraction that would empty a test fold is an error.
    """
    train_idx, test_idx = [], []
    for t, (name, y) in enumerate(zip(ds.task_names, ds.labels)):
        n = y.shape[0]
        rng = np.random.default_rng([spec.seed, t])
        if spec.stratified:
            chosen = []
            for c in range(ds.num_classes):
                members = np.flatnonzero(y == c)
                if members.size == 0:
                    raise SplitError(
                        f"task {name!r}: class {c} has no samples to stratify"
                    )
                k = max(1, _round_count(spec.train_fraction, members.size))
                perm = rng.permutation(members.size)
                chosen.append(members[perm[:k]])
            tr = np.sort(np.concatenate(chosen))
        else:
            if n * spec.train_fraction < 1.0:
                raise SplitError(
                    f"task {name!r}: {n} samples cannot fill a "
                    f"{spec.train_fraction} train fraction"
                )
            k = max(1, _round_count(spec.train_fraction, n))
            perm = rng.permutation(n)
            tr = np.sort(perm[:k])
        mask = np.zeros(n, dtype=bool)
        mask[tr] = True
        te = np.flatnonzero(~mask)
        if te.size == 0:
            raise SplitError(
                f"task {name!r}: test fold is empty at train fraction "
                f"{spec.train_fraction}"
            )
        train_idx.append(tr)
        test_idx.append(te)
    return ds.subset(train_idx), ds.subset(test_idx)


@dataclass
class SyntheticSpec:
    """Synthetic multi-task problem with a designed task relationship.

    ``task_covariance`` is the task-mode factor of the tensor-normal
    prior the ground-truth weights are drawn from: high positive
    entries make tasks' classifiers similar, zeros make them unrelated.
    From a config it is rows of JSON numbers; any caller's matrix must
    be symmetric positive definite, and is stored as a float array.
    ``test_samples_per_task`` sizes an optional held-out fold drawn from
    the same weights (0 for none).  A bad value raises ``ValueError``
    whose message starts with the field's name.
    """

    num_tasks: int
    feature_dim: int
    num_classes: int
    samples_per_task: int
    task_covariance: list[list[float]]
    noise_scale: float = 1.0
    seed: int = 0
    task_names: list[str] | None = None
    test_samples_per_task: int = 0

    def __post_init__(self):
        for name, least in (
            ("num_tasks", 1),
            ("feature_dim", 1),
            ("num_classes", 2),
            ("samples_per_task", 1),
            ("seed", 0),
            ("test_samples_per_task", 0),
        ):
            if getattr(self, name) < least:
                raise ValueError(
                    f"{name} must be at least {least}, got {getattr(self, name)}"
                )
        if not 0.0 < self.noise_scale < np.inf:
            raise ValueError(
                f"noise_scale must be positive and finite, got {self.noise_scale}"
            )
        n = self.num_tasks
        try:
            cov = np.asarray(self.task_covariance, dtype=float)
            if cov.shape != (n, n) or not np.isfinite(cov).all():
                raise ValueError
            SpdFactor(cov)
        except (TypeError, ValueError):
            raise ValueError(
                "task_covariance must be a finite symmetric positive definite "
                f"{n} x {n} matrix"
            ) from None
        self.task_covariance = cov
        if self.task_names is not None and len(self.task_names) != n:
            raise ValueError("task_names must have one entry per task")


def sample_task_data(
    weights: np.ndarray,
    samples_per_task,
    noise_scale: float,
    rng: np.random.Generator,
    task_names=None,
) -> MultiTaskDataset:
    """Draw per-task examples from fixed ground-truth weights.

    ``weights`` has shape ``(D, C, T)``.  Features are standard normal,
    labels categorical with probabilities ``softmax(x @ W_t /
    noise_scale)``; as ``noise_scale`` shrinks the labels approach the
    argmax rule.  Task ``t`` consumes its features first and label
    draws second, in task order.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 3:
        raise ValueError("weights must be (feature_dim, num_classes, num_tasks)")
    if noise_scale <= 0:
        raise ValueError("noise_scale must be positive")
    dim, num_classes, num_tasks = weights.shape
    if np.isscalar(samples_per_task):
        counts = [int(samples_per_task)] * num_tasks
    else:
        counts = [int(c) for c in samples_per_task]
        if len(counts) != num_tasks:
            raise ValueError("need one sample count per task")
    if task_names is None:
        task_names = [f"task{t}" for t in range(num_tasks)]

    feats, labs = [], []
    for t in range(num_tasks):
        n = counts[t]
        x = rng.standard_normal((n, dim))
        probs = softmax(x @ weights[:, :, t] / noise_scale)
        cum = np.cumsum(probs, axis=1)
        cum[:, -1] = 1.0
        u = rng.random((n, 1))
        y = (cum > u).argmax(axis=1)
        feats.append(x)
        labs.append(y.astype(int))
    return MultiTaskDataset(list(task_names), feats, labs, num_classes)


def generate_synthetic(spec: SyntheticSpec) -> tuple:
    """Generate a dataset and its ground-truth weights.

    Weights are one tensor-normal draw with identity feature and class
    factors and ``spec.task_covariance`` along the task mode; the same
    generator then feeds :func:`sample_task_data`.  Returns
    ``(dataset, weights)``.
    """
    rng = np.random.default_rng(spec.seed)
    prior = TensorNormal(
        np.zeros((spec.feature_dim, spec.num_classes, spec.num_tasks)),
        KronCovariance(
            [
                np.eye(spec.feature_dim),
                np.eye(spec.num_classes),
                spec.task_covariance,
            ]
        ),
    )
    weights = sample(prior, rng)
    ds = sample_task_data(
        weights,
        spec.samples_per_task,
        spec.noise_scale,
        rng,
        task_names=spec.task_names,
    )
    return ds, weights
