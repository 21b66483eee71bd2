"""Command-line entry point: fit distributions, train, evaluate, export.

Subcommands
-----------
``tnd-fit``
    Fit a tensor normal distribution to samples read from a JSON file
    and write the estimated mean, trace-normalized factors, and global
    scale as JSON.
``train``
    Run a training experiment described by a JSON config file; writes
    ``model.json``, ``report.csv`` (the per-epoch objective, accuracies,
    held-out loss and refit residuals), ``timings.csv`` (each epoch's
    wall-clock seconds of SGD, refit, gradient kernel, prox and scoring)
    and one ``relationship_<layer>.json`` per task-specific layer (none
    for the independent-training variant).
``eval``
    Score a checkpoint on the training or held-out fold of the data a
    config describes (the folds ``train`` trains and tests on) and
    print per-task accuracies as CSV on standard output.
``export-relationship``
    Re-emit a trained relationship matrix as JSON or CSV.

Exit codes are a stable scripting contract: 0 success, 1 usage or
config error or sizes that do not fit in memory, 2 non-convergence,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    MultiTaskDataset,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
    sample_task_data,
    split,
)
from .network import fold_scores, init_network, load_checkpoint, save_checkpoint
from .serialize import (
    ConfigError,
    InputError,
    check_task_names,
    csv_text,
    dump_json,
    dumps_json,
    load_json,
    output_errors,
    read_json_object,
    read_object,
    write_csv_rows,
)
from .tensor_normal import (
    EstimationError,
    flip_flop_mle,
    mle_mean,
    normalize_identifiable,
)
from .trainer import (
    TrainConfig,
    TrainingError,
    check_data,
    extract_relationship,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_NUMERIC = 3

CONFIG_SCHEMA_VERSION = 1
RELATIONSHIP_SCHEMA_VERSION = 1
TND_FIT_SCHEMA_VERSION = 2

VARIANTS = ("drn", "drn8", "stl")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1.

    The stock parser exits with 2, which this tool reserves for
    non-convergence.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# --------------------------------------------------------------------------
# experiment config


@dataclass
class ModelSpec:
    """The ``model`` section: shared trunk widths, the width of the
    task-specific bottleneck, and whether all tasks start from the same
    stack weights."""

    trunk_widths: list[int] = field(default_factory=list)
    bottleneck_width: int = 32
    tied_init: bool = True

    def __post_init__(self):
        if any(w < 1 for w in self.trunk_widths):
            raise ValueError(f"trunk_widths must be positive, got {self.trunk_widths}")
        if self.bottleneck_width < 1:
            raise ValueError(
                f"bottleneck_width must be at least 1, got {self.bottleneck_width}"
            )


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment description.

    Exactly one of ``manifest`` / ``synthetic`` is set.  The network is
    derived from the variant: ``drn`` trains a task-specific bottleneck
    and classifier, ``drn8`` keeps the bottleneck in the shared trunk
    and trains only a task-specific classifier, and ``stl`` uses the
    ``drn`` architecture with the coupling prior switched off (tasks
    train independently; no relationship files are produced).
    """

    variant: str
    manifest: Path | None
    synthetic: SyntheticSpec | None
    split_spec: SplitSpec | None
    model: ModelSpec
    train_cfg: TrainConfig
    output_dir: Path | None


def _parse_section(cls, doc, where: str):
    """Build the dataclass ``cls`` from the JSON object ``doc`` at
    ``where`` (``config.<section>``).

    The field table is ``dataclasses.fields(cls)``, read by
    :func:`~relnet.serialize.read_object`: a field without a default is
    required, and each value must pass its field's annotation.  Bounds
    live only in ``cls.__post_init__``, whose ``ValueError`` message
    starts with the field's name, so every error reads
    ``config.<section>.<field> ...``.
    """
    required, optional = {}, {}
    for f in fields(cls):
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        (optional if has_default else required)[f.name] = f.type
    kwargs = read_object(doc, where, required, optional)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from None


def parse_experiment_config(doc, base_dir) -> ExperimentConfig:
    """Validate a config document; unknown keys are errors.

    Every rejection is a :class:`ConfigError` naming
    ``config.<section>.<field>``.
    """
    base_dir = Path(base_dir)
    required = {"schema_version": (CONFIG_SCHEMA_VERSION,), "variant": VARIANTS}
    optional = {"split": "dict", "model": "dict", "train": "dict", "output_dir": "str"}
    doc = read_object(doc, "config", {**required, "data": "dict"}, optional)
    variant = doc["variant"]
    data = read_object(
        doc["data"], "config.data", {}, {"manifest": "str", "synthetic": "dict"}
    )
    if ("manifest" in data) == ("synthetic" in data):
        raise ConfigError(
            "config.data: exactly one of 'manifest' or 'synthetic' is required"
        )
    manifest = None
    synthetic = None
    if "manifest" in data:
        manifest = base_dir / data["manifest"]
    else:
        synthetic = _parse_section(
            SyntheticSpec, data["synthetic"], "config.data.synthetic"
        )

    split_spec = None
    if "split" in doc:
        if synthetic is not None:
            raise ConfigError(
                "config.split: splits apply to manifest data only; synthetic "
                "data uses test_samples_per_task"
            )
        split_spec = _parse_section(SplitSpec, doc["split"], "config.split")

    model = _parse_section(ModelSpec, doc.get("model", {}), "config.model")
    train_cfg = _parse_section(TrainConfig, doc.get("train", {}), "config.train")
    if variant == "stl":
        if doc.get("train", {}).get("prior_weight", 0.0) != 0.0:
            raise ConfigError(
                "config.train.prior_weight: variant 'stl' trains tasks "
                "independently; leave prior_weight unset or 0"
            )
        train_cfg = replace(train_cfg, prior_weight=0.0)

    output_dir = None
    if "output_dir" in doc:
        output_dir = base_dir / doc["output_dir"]

    return ExperimentConfig(
        variant=variant,
        manifest=manifest,
        synthetic=synthetic,
        split_spec=split_spec,
        model=model,
        train_cfg=train_cfg,
        output_dir=output_dir,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate the config file at ``path``; its paths are
    relative to its directory."""
    path = Path(path)
    return parse_experiment_config(load_json(path), path.parent)


def load_experiment_data(cfg: ExperimentConfig) -> tuple:
    """Materialize ``(train_ds, eval_ds)`` for a parsed config.

    Synthetic data draws the training fold from the configured data
    seed and an
    optional held-out fold (``test_samples_per_task``) from the same
    ground-truth weights with an independent child generator, so train
    and test share the task structure but no sampling noise.  A draw
    that does not fit in memory is a :class:`ConfigError` giving the
    sizes.
    """
    spec = cfg.synthetic
    if spec is not None:
        try:
            train_ds, weights = generate_synthetic(spec)
            eval_ds = None
            if spec.test_samples_per_task > 0:
                eval_ds = sample_task_data(
                    weights,
                    spec.test_samples_per_task,
                    spec.noise_scale,
                    np.random.default_rng([spec.seed, 1]),
                    task_names=train_ds.task_names,
                )
        except MemoryError:
            raise ConfigError(
                f"config.data.synthetic: {spec.num_tasks} tasks of "
                f"{spec.samples_per_task} training and {spec.test_samples_per_task} "
                f"test samples with feature_dim {spec.feature_dim} and "
                f"{spec.num_classes} classes do not fit in memory"
            ) from None
        return train_ds, eval_ds
    ds = load_manifest(cfg.manifest)
    if cfg.split_spec is not None:
        return split(ds, cfg.split_spec)
    return ds, None


def build_network(cfg: ExperimentConfig, data: MultiTaskDataset):
    """Construct the variant's architecture for ``data`` with the
    config's init seed.

    Initialization uses a child generator of the training seed, distinct
    from the data and shuffle streams, so the same data can be trained
    under different seeds and vice versa.
    """
    model = cfg.model
    if cfg.variant == "drn8":
        trunk = model.trunk_widths + [model.bottleneck_width]
        stack = [data.num_classes]
    else:
        trunk = model.trunk_widths
        stack = [model.bottleneck_width, data.num_classes]
    rng = np.random.default_rng([cfg.train_cfg.seed, 2])
    return init_network(
        data.feature_dim, trunk, stack, data.num_tasks, rng, tied_tasks=model.tied_init
    )


def run_experiment(cfg: ExperimentConfig, output_dir) -> dict:
    """Train per the config and write all artifacts under ``output_dir``.

    Returns a dict of the written paths.  At one BLAS thread count,
    ``report.csv``, ``model.json`` and the relationship JSONs depend only
    on the config and seeds; ``timings.csv`` carries the wall-clock
    columns and is the only non-reproducible output.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    train_ds, eval_ds = load_experiment_data(cfg)
    net = build_network(cfg, train_ds)
    net, cov, report = train(net, train_ds, cfg.train_cfg, eval_data=eval_ds)

    paths = {}
    model_path = output_dir / "model.json"
    save_checkpoint(net, model_path, task_names=train_ds.task_names)
    paths["model"] = model_path

    report_path = output_dir / "report.csv"
    report.to_csv(report_path)
    paths["report"] = report_path

    timings_path = output_dir / "timings.csv"
    report.timings_to_csv(timings_path)
    paths["timings"] = timings_path

    if cfg.variant != "stl":
        for layer_id in net.stack.layer_ids:
            corr = extract_relationship(cov, layer_id)
            rel_path = output_dir / f"relationship_{layer_id}.json"
            dump_json(
                {
                    "schema_version": RELATIONSHIP_SCHEMA_VERSION,
                    "layer": layer_id,
                    "task_names": list(train_ds.task_names),
                    "correlation": corr,
                },
                rel_path,
            )
            paths[f"relationship_{layer_id}"] = rel_path
    return paths


# --------------------------------------------------------------------------
# tnd-fit


def _load_tnd_samples(path: Path) -> np.ndarray:
    """Read ``{"dims": [d1, d2, d3], "samples": [[...], ...]}`` into one
    ``(n, d1, d2, d3)`` array.

    ``samples`` is read under the matrix rule of
    :func:`~relnet.serialize.check_type`: a list of samples, each a list
    of finite JSON numbers, or one array object
    (:class:`~relnet.serialize.BinaryArray`) of 2 dims; the list form
    is read a row at a time (:func:`~relnet.serialize.read_json_object`).
    It must have shape ``(n, d)``, one row of ``d = d1 * d2 * d3``
    entries per sample, and the sample count ``n`` must pass ``(n - 1) *
    d / d_k >= d_k`` for every mode ``k``.
    With the mean estimated, the centred samples span at most ``n - 1``
    directions, so below this count the mode-``k`` Gram matrix cannot
    be definite.  The condition is necessary, not sufficient, for the
    maximum likelihood estimate to exist: Derksen, Makam & Walter,
    "Maximum likelihood estimation for tensor normal models via
    castling transforms" (Forum Math. Sigma, 2022) give the exact
    thresholds, and Dutilleul (1999) the matrix case.  Every rejection
    is a :class:`ConfigError` naming ``path``.
    """
    keys = {"dims": "list[count]", "samples": "list[list[float]]"}
    doc = read_json_object(path, keys)
    dims, samples = doc["dims"], doc["samples"]
    if len(dims) != 3:
        raise ConfigError(f"{path}: dims must be three positive integers")
    total = math.prod(dims)
    n = len(samples)
    if n == 0:
        raise ConfigError(f"{path}: samples must be a non-empty list")
    if samples.shape[1] != total:
        raise ConfigError(
            f"{path}: samples must have shape [n, {total}], got {list(samples.shape)}"
        )
    for k, dk in enumerate(dims):
        least = -(-dk * dk // total) + 1
        if n < least:
            raise ConfigError(
                f"{path}: {n} samples are too few for dims {dims}: mode "
                f"{k + 1} needs (n - 1) * {total // dk} >= {dk}, so at least "
                f"{least} samples"
            )
    return samples.reshape(n, *dims)


def cmd_tnd_fit(args) -> int:
    """Fit a tensor normal to JSON samples; write the estimate as JSON.

    The output's path is checked before the samples are read, so a bad
    ``--out`` costs no load and no fit."""
    out = Path(args.out)
    if not out.parent.is_dir():
        code = errno.ENOTDIR if out.parent.exists() else errno.ENOENT
        raise InputError(f"{args.out}: {os.strerror(code)}")
    if out.is_dir():
        raise InputError(f"{args.out}: {os.strerror(errno.EISDIR)}")
    samples = _load_tnd_samples(args.input)
    mean = mle_mean(samples)
    try:
        result = flip_flop_mle(
            samples, mean, tol=args.tol, max_iter=args.max_iter
        )
    except EstimationError as exc:
        print(f"relnet tnd-fit: estimation failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    normalized, scale = normalize_identifiable(result.cov)
    doc = {
        "schema_version": TND_FIT_SCHEMA_VERSION,
        "dims": list(mean.shape),
        "mean": mean.ravel(),
        "factors": [f.matrix for f in normalized.factors],
        "scale": scale,
        "iterations": result.iterations,
        "log_likelihood": result.log_likelihood,
        "converged": result.converged,
        "history": list(result.history),
    }
    with output_errors(args.out):
        dump_json(doc, args.out)
    if not result.converged:
        print(
            f"relnet tnd-fit: no convergence within {args.max_iter} sweeps",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# --------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    """Run one experiment from a JSON config file."""
    cfg = load_config(args.config)
    if args.seed is not None:
        try:
            cfg.train_cfg = replace(cfg.train_cfg, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--{exc}") from None
    output_dir = Path(args.out) if args.out else cfg.output_dir
    if output_dir is None:
        raise ConfigError("no output directory: set config.output_dir or --out")

    try:
        # Training checks every non-finite value and names it in the
        # numeric-failure line, so numpy's warnings would only repeat it.
        with output_errors(output_dir), np.errstate(over="ignore", invalid="ignore"):
            paths = run_experiment(cfg, output_dir)
    except (TrainingError, EstimationError) as exc:
        print(f"relnet train: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


# --------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    """Score a checkpoint on one fold of a config's data; print CSV to
    stdout.

    The folds are those :func:`run_experiment` trains and tests on, and
    the accuracies are :func:`~relnet.network.fold_scores`', as in
    ``report.csv``.  A config without a held-out fold scores its whole
    dataset.
    """
    cfg = load_config(args.config)
    net, task_names = load_checkpoint(args.model)
    train_ds, test_ds = load_experiment_data(cfg)
    ds = train_ds if args.fold == "train" or test_ds is None else test_ds
    check_data(net, ds, str(cfg.manifest or args.config))
    if task_names is not None and task_names != ds.task_names:
        raise ConfigError(
            f"{args.model}: task_names {task_names} differ from the data's "
            f"{ds.task_names}"
        )

    accs = fold_scores(net, ds)[1]
    rows = [["task", "accuracy"], *zip(ds.task_names, accs)]
    _write_stdout(csv_text([*rows, ["average", float(np.mean(accs))]]))
    return EXIT_OK


def _write_stdout(text: str) -> None:
    """Write ``text`` to standard output as UTF-8, whatever the locale's
    encoding; a stream without a byte buffer (``io.StringIO``) takes the
    text as it is."""
    stream = sys.stdout
    if hasattr(stream, "buffer"):
        stream.flush()
        stream, text = stream.buffer, text.encode("utf-8")
    stream.write(text)


# --------------------------------------------------------------------------
# export-relationship


def cmd_export_relationship(args) -> int:
    """Re-emit a stored relationship matrix as JSON or CSV.

    The JSON form is the checked values of the document, in its order,
    the matrix written a row at a time; its ``layer`` must be
    ``--layer``."""
    path = Path(args.model_dir) / f"relationship_{args.layer}.json"
    keys = {
        "schema_version": (RELATIONSHIP_SCHEMA_VERSION,),
        "layer": (args.layer,),
        "task_names": "list[str]",
        "correlation": "list[list[float]]",
    }
    read = read_json_object(path, keys)
    names, corr = read["task_names"], read["correlation"]
    check_task_names(names, lambda msg: ConfigError(f"{path}: task_names: {msg}"))
    if corr.shape != (len(names), len(names)):
        raise ConfigError(f"{path}: correlation must have one row and column per task")

    rows = [["task", *names], *zip(names, corr)]
    if not args.out:
        _write_stdout(dumps_json(read) if args.format == "json" else csv_text(rows))
        return EXIT_OK
    with output_errors(args.out):
        if args.format == "json":
            dump_json(read, args.out)
        else:
            write_csv_rows(args.out, rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# argument wiring


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _sweep_limit(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relnet",
        description=(
            "Joint multi-task training with a Kronecker-structured task "
            "prior, plus tensor-normal fitting utilities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser(
        "tnd-fit",
        help="fit a tensor normal distribution to samples in a JSON file",
    )
    fit.add_argument("--input", required=True, help="JSON samples file")
    fit.add_argument("--out", required=True, help="output JSON path")
    fit.add_argument(
        "--tol", type=_tolerance, default=1e-8, help="convergence tolerance"
    )
    fit.add_argument("--max-iter", type=_sweep_limit, default=200, help="sweep limit")
    fit.set_defaults(func=cmd_tnd_fit)

    tr = sub.add_parser("train", help="run a training experiment from a config")
    tr.add_argument("--config", required=True, help="experiment config JSON")
    tr.add_argument("--seed", type=int, default=None, help="override train.seed")
    tr.add_argument("--out", default=None, help="override config output_dir")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint on a config's data")
    ev.add_argument("--config", required=True, help="experiment config JSON")
    ev.add_argument("--model", required=True, help="checkpoint JSON path")
    ev.add_argument(
        "--fold",
        choices=("train", "test"),
        default="test",
        help="which fold of the config's data to score",
    )
    ev.set_defaults(func=cmd_eval)

    ex = sub.add_parser(
        "export-relationship", help="emit a trained relationship matrix"
    )
    ex.add_argument("--model-dir", required=True, help="directory with train outputs")
    ex.add_argument("--layer", required=True, help="task-specific layer id")
    ex.add_argument("--format", choices=("json", "csv"), default="json")
    ex.add_argument("--out", default=None, help="output path (default stdout)")
    ex.set_defaults(func=cmd_export_relationship)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"relnet {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"relnet {args.command}: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
