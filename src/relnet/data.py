"""Multi-task dataset handling.

A dataset is a list of per-task example sets over a shared feature
space and class set.  Tasks never share rows; only the model couples
them.  CSV files hold one task each, one example per row, features
first and the integer class label last.

A fold is held pooled: one ``(N, D)`` feature matrix and one label
vector over all of its tasks' rows, tasks in order, of which each
task's ``features[t]`` and ``labels[t]`` are views.  SGD walks the
pooled arrays, so the views are written in place, never rebound.
Loading, splitting and sampling each build a fold's pooled arrays
directly.

The synthetic generator draws ground-truth classifier weights for all
tasks jointly from a tensor normal with identity feature and class
factors and the designed relationship matrix as its task factor, made
as one coloring of the task mode by that matrix's Cholesky factor;
then it samples Gaussian features and softmax labels per task.  It is
the controlled setting where learned task relationships can be
compared against a known one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .network import softmax
from .serialize import (
    InputError,
    check_task_names,
    dump_json,
    open_text,
    read_json_object,
    read_object,
    write_csv_rows,
)
from .tensor_normal import SpdFactor

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
    """Per-task feature matrices and label vectors, held pooled.

    ``features[t]`` has shape ``(N_t, D)`` with one shared ``D``;
    ``labels[t]`` holds ints in ``[0, num_classes)``.  The fold is held
    as one C-contiguous ``(N, D)`` float64 matrix ``pooled_features``
    and one int64 vector ``pooled_labels``, tasks in order, and
    ``features[t]`` and ``labels[t]`` are views of their row blocks.
    Built from per-task arrays, the dataset copies them into the pooled
    arrays once.  Write into the views, in place, and the pooled arrays
    see it; do not rebind ``features[t]`` or ``labels[t]``, since the
    pooled arrays, which training and scoring read, would not.
    """

    task_names: list
    features: list
    labels: list
    num_classes: int
    pooled_features: np.ndarray = field(init=False, repr=False, compare=False)
    pooled_labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_task_names(self.task_names, DatasetError)
        if not (len(self.features) == len(self.labels) == len(self.task_names)):
            raise DatasetError("need features and labels for every task")
        feats = [np.asarray(x, dtype=float) for x in self.features]
        labs = [np.asarray(y, dtype=int) for y in self.labels]
        for name, x, y in zip(self.task_names, feats, labs):
            if x.ndim != 2:
                raise DatasetError(f"task {name!r}: features must be a non-empty matrix")
            if x.shape[1] != feats[0].shape[1]:
                raise DatasetError(
                    f"task {name!r}: feature dim {x.shape[1]} != {feats[0].shape[1]}"
                )
            if y.shape != (x.shape[0],):
                raise DatasetError(f"task {name!r}: one label per row required")
        self._hold(np.concatenate(feats), np.concatenate(labs), [len(y) for y in labs])

    @classmethod
    def _of_pool(cls, task_names, x, y, sizes, num_classes) -> "MultiTaskDataset":
        """The dataset whose pooled arrays are ``x`` and ``y`` themselves,
        task ``t`` holding the next ``sizes[t]`` rows; for producers
        that build the pooled arrays, which are then not copied."""
        ds = cls.__new__(cls)
        ds.task_names, ds.num_classes = task_names, num_classes
        check_task_names(task_names, DatasetError)
        if len(sizes) != len(task_names):
            raise DatasetError("need features and labels for every task")
        ds._hold(x, y, sizes)
        return ds

    def _hold(self, x, y, sizes) -> None:
        """Keep ``x`` and ``y`` as the pooled arrays and their row blocks
        of ``sizes`` as the per-task views, after the checks that need
        every task at once."""
        if self.num_classes < 2:
            raise DatasetError("need at least two classes")
        for name, n in zip(self.task_names, sizes):
            if n == 0:
                raise DatasetError(f"task {name!r}: features must be a non-empty matrix")
        ends = np.cumsum(sizes)
        if y.min() < 0 or y.max() >= self.num_classes:
            bad = np.flatnonzero((y < 0) | (y >= self.num_classes))[0]
            raise DatasetError(
                f"task {self.task_names[np.searchsorted(ends, bad, 'right')]!r}: "
                f"labels must lie in [0, {self.num_classes})"
            )
        self.pooled_features, self.pooled_labels = x, y
        self.features = np.split(x, ends[:-1])
        self.labels = np.split(y, ends[:-1])

    @property
    def num_tasks(self) -> int:
        return len(self.task_names)

    @property
    def feature_dim(self) -> int:
        return self.pooled_features.shape[1]

    @property
    def task_sizes(self) -> tuple:
        return tuple(x.shape[0] for x in self.features)

    def subset(self, indices_per_task) -> "MultiTaskDataset":
        """New dataset keeping the given row indices of every task.

        Each task's indices select as numpy indexing of its rows does;
        the kept rows of all tasks are then gathered by one ``take`` of
        the pooled arrays.
        """
        rows = [
            np.arange(start, start + x.shape[0])[np.asarray(idx, dtype=int)]
            for start, x, idx in zip(
                np.cumsum((0,) + self.task_sizes), self.features, indices_per_task
            )
        ]
        rows_all = np.concatenate(rows)
        return MultiTaskDataset._of_pool(
            list(self.task_names),
            self.pooled_features.take(rows_all, axis=0),
            self.pooled_labels.take(rows_all),
            [r.size for r in rows],
            self.num_classes,
        )


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
    so this path accepts only what that parser accepts.  The returned
    arrays are the two field views of the parsed rows, not copies:
    :func:`load_csv` copies them once, into the pooled arrays.
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
    x, y = rows["x"], rows["y"]
    if y.min() < 0 or y.max() >= num_classes or not np.isfinite(x).all():
        return None
    return x, y


def load_csv(paths, num_classes: int, task_names=None) -> MultiTaskDataset:
    """Load one CSV file per task.

    Rows are ``x1,...,xD,label``: blank lines are skipped, fields are
    stripped, features are finite floats, the label is a base-10 integer
    in ``[0, num_classes)`` and ``#`` starts no comment.  A file is read
    in one vectorized pass; only a file that pass rejects is read again
    line by line, to name the bad line.  The parsed rows of all files
    are copied once, into the dataset's pooled arrays.  An unreadable or
    non-UTF-8 file, or malformed content, raises :class:`DatasetError`
    naming the file (and line).  Task names default to the file stems.
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
        write_csv_rows(path, zip(x, y))


def load_manifest(path) -> MultiTaskDataset:
    """Load a dataset described by a manifest JSON.

    The manifest lists task names and CSV paths (relative to its own
    directory) plus the class count; the feature dim, when present, is
    validated against the loaded data.  The manifest is read by
    :func:`~relnet.serialize.read_json_object` and each of its tasks by
    :func:`~relnet.serialize.read_object`, so an
    unknown or missing key, or a value of the wrong JSON type, raises a
    :class:`~relnet.serialize.ConfigError` naming the manifest and the
    key path (``<manifest>: tasks[0].path must be a string, got 5``).
    An error from a task file or from the tasks it lists reads
    ``<manifest>: <message of load_csv>``.
    """
    path = Path(path)
    doc = read_json_object(
        path,
        {
            "schema_version": (MANIFEST_SCHEMA_VERSION,),
            "num_classes": "int",
            "tasks": "list[dict]",
        },
        {"feature_dim": "int"},
    )
    tasks = [
        read_object(entry, f"{path}: tasks[{i}]", {"name": "str", "path": "str"})
        for i, entry in enumerate(doc["tasks"])
    ]
    files = [path.parent / task["path"] for task in tasks]
    try:
        ds = load_csv(files, doc["num_classes"], [task["name"] for task in tasks])
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    if doc.get("feature_dim", ds.feature_dim) != ds.feature_dim:
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

    Each task's rows fall into groups: one group of all ``N_t`` rows, or,
    for a stratified split, one group per class.  The training fold draws
    ``max(1, round(fraction * size))`` rows of each group, so a
    stratified split keeps at least one training example of every
    class.  Unstratified splits require ``N_t >= 1/fraction``; stratified
    ones need every class non-empty in every task.  Task ``t`` uses its
    own child generator of ``spec.seed``, so adding a task does not
    reshuffle the others.  Both folds must end up non-empty for every
    task; a fraction that would empty a test fold is an error.
    """
    train_idx, test_idx = [], []
    for t, (name, y) in enumerate(zip(ds.task_names, ds.labels)):
        n = y.shape[0]
        rng = np.random.default_rng([spec.seed, t])
        if spec.stratified:
            groups = [np.flatnonzero(y == c) for c in range(ds.num_classes)]
        else:
            if n * spec.train_fraction < 1.0:
                raise SplitError(
                    f"task {name!r}: {n} samples cannot fill a "
                    f"{spec.train_fraction} train fraction"
                )
            groups = [np.arange(n)]
        chosen = []
        for c, members in enumerate(groups):
            if members.size == 0:
                raise SplitError(
                    f"task {name!r}: class {c} has no samples to stratify"
                )
            k = max(1, _round_count(spec.train_fraction, members.size))
            perm = rng.permutation(members.size)
            chosen.append(members[perm[:k]])
        tr = np.sort(np.concatenate(chosen))
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
    prior the ground-truth weights are drawn from, whose feature and
    class factors are identities, so the draw is one coloring of the
    task mode by its Cholesky factor: high positive entries make
    tasks' classifiers similar, zeros make them unrelated.
    From a config it is read under the matrix rule of
    :func:`~relnet.serialize.check_type`; any caller's matrix must be
    symmetric positive definite, and is stored as a float array.
    ``test_samples_per_task`` sizes an optional held-out fold drawn from
    the same weights (0 for none).  A bad value raises ``ValueError``
    whose message starts with the field's name; so does a size whose
    array numpy could not count in bytes.
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
        # numpy counts an array's bytes, 8 an entry, in an intp: the
        # (feature_dim, num_classes, num_tasks) weights and each task's
        # (count, feature_dim) features.
        most = np.iinfo(np.intp).max // 8
        dim, tasks = self.feature_dim, self.num_tasks
        for name, per, sizes in (
            ("num_classes", dim * tasks, f"feature_dim {dim} and {tasks} tasks"),
            ("samples_per_task", dim, f"feature_dim {dim}"),
            ("test_samples_per_task", dim, f"feature_dim {dim}"),
        ):
            if getattr(self, name) > most // per:
                raise ValueError(
                    f"{name} must be at most {most // per} with {sizes}, "
                    f"got {getattr(self, name)}"
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
        if self.task_names is not None:
            check_task_names(
                self.task_names, lambda msg: ValueError(f"task_names: {msg}")
            )
            if len(self.task_names) != n:
                raise ValueError("task_names must have one entry per task")


def sample_task_data(
    weights: np.ndarray,
    samples_per_task: int,
    noise_scale: float,
    rng: np.random.Generator,
    task_names=None,
) -> MultiTaskDataset:
    """Draw ``samples_per_task`` examples of every task from fixed
    ground-truth weights.

    ``weights`` has shape ``(D, C, T)``.  Features are standard normal,
    labels categorical with probabilities ``softmax(x @ W_t /
    noise_scale)``; as ``noise_scale`` shrinks the labels approach the
    argmax rule, which they follow exactly once the scaled logits
    overflow.  Task ``t`` consumes its features first and label
    draws second, in task order; its features are drawn straight into
    its rows of the dataset's pooled matrix.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 3:
        raise ValueError("weights must be (feature_dim, num_classes, num_tasks)")
    if noise_scale <= 0:
        raise ValueError("noise_scale must be positive")
    dim, num_classes, num_tasks = weights.shape
    n = int(samples_per_task)
    if task_names is None:
        task_names = [f"task{t}" for t in range(num_tasks)]

    feats = np.empty((num_tasks * n, dim))
    labs = np.empty(num_tasks * n, dtype=int)
    for t in range(num_tasks):
        rows = slice(t * n, (t + 1) * n)
        x = rng.standard_normal(out=feats[rows])
        logits = x @ weights[:, :, t]
        logits -= logits.max(axis=1, keepdims=True)
        # A tiny noise_scale sends the non-max logits to -inf: the
        # argmax limit, exactly.
        with np.errstate(over="ignore"):
            probs = softmax(logits / noise_scale)
        cum = np.cumsum(probs, axis=1)
        cum[:, -1] = 1.0
        u = rng.random((n, 1))
        labs[rows] = (cum > u).argmax(axis=1)
    return MultiTaskDataset._of_pool(
        list(task_names), feats, labs, [n] * num_tasks, num_classes
    )


def generate_synthetic(spec: SyntheticSpec) -> tuple:
    """Generate a dataset and its ground-truth weights.

    The weights are one tensor-normal draw with zero mean, identity
    feature and class factors and ``spec.task_covariance`` along the
    task mode.  With both identities, that draw is one coloring of the
    task mode: a ``(D*C, T)`` standard normal array times ``L^T``, ``L``
    the Cholesky factor of ``task_covariance``, so no ``(D, D)`` or
    ``(C, C)`` matrix is formed and generation costs what the returned
    arrays hold.  The same generator then feeds
    :func:`sample_task_data`.  Returns ``(dataset, weights)``.
    """
    rng = np.random.default_rng(spec.seed)
    dims = (spec.feature_dim, spec.num_classes, spec.num_tasks)
    chol = SpdFactor(spec.task_covariance).chol
    z = rng.standard_normal((dims[0] * dims[1], dims[2]))
    weights = (z @ chol.T).reshape(dims)
    ds = sample_task_data(
        weights,
        spec.samples_per_task,
        spec.noise_scale,
        rng,
        task_names=spec.task_names,
    )
    return ds, weights
