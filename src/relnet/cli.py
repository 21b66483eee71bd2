"""Command-line entry point: fit distributions, train, evaluate, export.

Subcommands
-----------
``tnd-fit``
    Fit a tensor normal distribution to samples read from a JSON file
    and write the estimated mean, trace-normalized factors, and global
    scale as JSON.
``train``
    Run a training experiment described by a JSON config file; writes
    ``model.json``, ``report.csv``, ``timings.csv`` and one
    ``relationship_<layer>.json`` per task-specific layer (none for the
    independent-training variant).
``eval``
    Score a checkpoint against a dataset manifest, optionally after
    re-deriving the train/test split, and print per-task accuracies as
    CSV on standard output.
``export-relationship``
    Re-emit a trained relationship matrix as JSON or CSV.

Exit codes are a stable scripting contract: 0 success, 1 usage or
config error, 2 non-convergence, 3 numeric failure.
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
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
    sample_task_data,
    split,
)
from .network import accuracy, init_network, load_checkpoint, save_checkpoint
from .serialize import (
    ConfigError,
    InputError,
    check_type,
    dump_json,
    dumps_json,
    format_float,
    format_floats,
    load_json,
    output_errors,
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
TND_FIT_SCHEMA_VERSION = 1

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


def _require(doc, where: str, required, optional) -> None:
    """Check that ``doc`` is a JSON object holding every ``required`` key
    and no key outside ``required`` and ``optional``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _parse_section(cls, doc, where: str):
    """Build the dataclass ``cls`` from the JSON object ``doc`` at
    ``where`` (``config.<section>``).

    The field table is ``dataclasses.fields(cls)``: a field without a
    default is required, a key that names no field is an error, and each
    value must pass :func:`~relnet.serialize.check_type` for its field's
    annotation.  Bounds live only in ``cls.__post_init__``, whose
    ``ValueError`` message starts with the field's name, so every error
    reads ``config.<section>.<field> ...``.
    """
    table = {f.name: f for f in fields(cls)}
    required = [
        name
        for name, f in table.items()
        if f.default is MISSING and f.default_factory is MISSING
    ]
    _require(doc, where, required, table)
    kwargs = {
        key: check_type(value, table[key].type, f"{where}.{key}")
        for key, value in doc.items()
    }
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
    _require(
        doc,
        "config",
        required=("schema_version", "variant", "data"),
        optional=("split", "model", "train", "output_dir"),
    )
    if doc["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: unsupported value {doc['schema_version']!r}"
        )
    variant = doc["variant"]
    if variant not in VARIANTS:
        raise ConfigError(
            f"config.variant: expected one of {list(VARIANTS)}, got {variant!r}"
        )

    data = doc["data"]
    _require(data, "config.data", required=(), optional=("manifest", "synthetic"))
    if ("manifest" in data) == ("synthetic" in data):
        raise ConfigError(
            "config.data: exactly one of 'manifest' or 'synthetic' is required"
        )
    manifest = None
    synthetic = None
    if "manifest" in data:
        manifest = base_dir / check_type(data["manifest"], "str", "config.data.manifest")
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
        output_dir = base_dir / check_type(doc["output_dir"], "str", "config.output_dir")

    return ExperimentConfig(
        variant=variant,
        manifest=manifest,
        synthetic=synthetic,
        split_spec=split_spec,
        model=model,
        train_cfg=train_cfg,
        output_dir=output_dir,
    )


def load_experiment_data(cfg: ExperimentConfig) -> tuple:
    """Materialize ``(train_ds, eval_ds)`` for a parsed config.

    Synthetic data draws the training fold from the configured data
    seed and an
    optional held-out fold (``test_samples_per_task``) from the same
    ground-truth weights with an independent child generator, so train
    and test share the task structure but no sampling noise.
    """
    spec = cfg.synthetic
    if spec is not None:
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
        return train_ds, eval_ds
    ds = load_manifest(cfg.manifest)
    if cfg.split_spec is not None:
        return split(ds, cfg.split_spec)
    return ds, None


def build_network(cfg: ExperimentConfig, feature_dim: int, num_classes: int, num_tasks: int):
    """Construct the variant's architecture with the config's init seed.

    Initialization uses a child generator of the training seed, distinct
    from the data and shuffle streams, so the same data can be trained
    under different seeds and vice versa.
    """
    model = cfg.model
    if cfg.variant == "drn8":
        trunk = model.trunk_widths + [model.bottleneck_width]
        stack = [num_classes]
    else:
        trunk = model.trunk_widths
        stack = [model.bottleneck_width, num_classes]
    rng = np.random.default_rng([cfg.train_cfg.seed, 2])
    return init_network(
        feature_dim, trunk, stack, num_tasks, rng, tied_tasks=model.tied_init
    )


def run_experiment(cfg: ExperimentConfig, output_dir) -> dict:
    """Train per the config and write all artifacts under ``output_dir``.

    Returns a dict of the written paths.  ``report.csv`` and the
    relationship JSONs depend only on the config and seeds;
    ``timings.csv`` carries the wall-clock columns and is the only
    non-reproducible output.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    train_ds, eval_ds = load_experiment_data(cfg)
    net = build_network(
        cfg, train_ds.feature_dim, train_ds.num_classes, train_ds.num_tasks
    )
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


def _load_tnd_samples(path: Path) -> list:
    """Read ``{"dims": [d1, d2, d3], "samples": [[...], ...]}`` into one
    ``(d1, d2, d3)`` array per sample.

    Each sample must be a list of ``d = d1 * d2 * d3`` JSON numbers, all
    finite (:func:`~relnet.serialize.check_type`).  Then the sample count
    ``n`` must pass ``(n - 1) * d / d_k >= d_k`` for every mode ``k``.
    With the mean estimated, the centred samples span at most ``n - 1``
    directions, so below this count the mode-``k`` Gram matrix cannot
    be definite.  The condition is necessary, not sufficient, for the
    maximum likelihood estimate to exist: Derksen, Makam & Walter,
    "Maximum likelihood estimation for tensor normal models via
    castling transforms" (Forum Math. Sigma, 2022) give the exact
    thresholds, and Dutilleul (1999) the matrix case.  Every rejection
    is a :class:`ConfigError` naming ``path``.
    """
    doc = load_json(path)
    _require(doc, str(path), required=("dims", "samples"), optional=())
    dims = check_type(doc["dims"], "list[int]", f"{path}: dims")
    if len(dims) != 3 or min(dims) < 1:
        raise ConfigError(f"{path}: dims must be three positive integers")
    samples = doc["samples"]
    if not isinstance(samples, list) or not samples:
        raise ConfigError(f"{path}: samples must be a non-empty list")
    total = math.prod(dims)
    out = []
    for i, flat in enumerate(samples):
        arr = check_type(flat, "list[float]", f"{path}: sample {i}")
        if arr.size != total:
            raise ConfigError(
                f"{path}: sample {i} has {arr.size} entries, expected {total}"
            )
        out.append(arr.reshape(dims))
    for k, dk in enumerate(dims):
        least = -(-dk * dk // total) + 1
        if len(out) < least:
            raise ConfigError(
                f"{path}: {len(out)} samples are too few for dims {dims}: mode "
                f"{k + 1} needs (n - 1) * {total // dk} >= {dk}, so at least "
                f"{least} samples"
            )
    return out


def cmd_tnd_fit(args) -> int:
    """Fit a tensor normal to JSON samples; write the estimate as JSON.

    The output's directory is checked before the fit, so a bad ``--out``
    costs no fit."""
    out_dir = Path(args.out).parent
    if not out_dir.is_dir():
        code = errno.ENOTDIR if out_dir.exists() else errno.ENOENT
        raise InputError(f"{args.out}: {os.strerror(code)}")
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
    config_path = Path(args.config)
    cfg = parse_experiment_config(load_json(config_path), config_path.parent)
    if args.seed is not None:
        try:
            cfg.train_cfg = replace(cfg.train_cfg, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--{exc}") from None
    output_dir = Path(args.out) if args.out else cfg.output_dir
    if output_dir is None:
        raise ConfigError("no output directory: set config.output_dir or --out")

    try:
        with output_errors(output_dir):
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
    """Score a checkpoint on a manifest dataset; print CSV to stdout."""
    net, _ = load_checkpoint(args.model)
    ds = load_manifest(args.data)
    if args.train_fraction is not None:
        spec = SplitSpec(args.train_fraction, args.stratified, args.split_seed)
        train_ds, test_ds = split(ds, spec)
        ds = train_ds if args.fold == "train" else test_ds
    elif args.fold == "train":
        raise ConfigError("--fold requires --train-fraction to define the split")
    check_data(net, ds, str(args.data))

    lines = ["task,accuracy"]
    accs = []
    for t, name in enumerate(ds.task_names):
        acc = accuracy(net, t, ds.features[t], ds.labels[t])
        accs.append(acc)
        lines.append(f"{name},{format_float(acc)}")
    lines.append(f"average,{format_float(float(np.mean(accs)))}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# --------------------------------------------------------------------------
# export-relationship


def cmd_export_relationship(args) -> int:
    """Re-emit a stored relationship matrix as JSON or CSV."""
    path = Path(args.model_dir) / f"relationship_{args.layer}.json"
    if not path.exists():
        raise ConfigError(f"no such file: {path}")
    doc = load_json(path)
    # Any other key is allowed: JSON export re-emits the document as read.
    _require(doc, str(path), ("task_names", "correlation"), optional=doc)
    names = check_type(doc["task_names"], "list[str]", f"{path}: task_names")
    corr = check_type(doc["correlation"], "list[list[float]]", f"{path}: correlation")
    if len(corr) != len(names) or any(row.size != len(names) for row in corr):
        raise ConfigError(f"{path}: correlation must have one row and column per task")

    if args.format == "json":
        try:
            text = dumps_json(doc)
        except ValueError as exc:  # a non-finite value in another field
            raise ConfigError(f"{path}: {exc}") from None
    else:
        lines = ["task," + ",".join(names)]
        for name, row in zip(names, corr):
            lines.append(name + "," + format_floats(row, ","))
        text = "\n".join(lines) + "\n"

    if args.out:
        with output_errors(args.out):
            Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
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

    ev = sub.add_parser("eval", help="score a checkpoint on a dataset manifest")
    ev.add_argument("--model", required=True, help="checkpoint JSON path")
    ev.add_argument("--data", required=True, help="dataset manifest path")
    ev.add_argument(
        "--fold",
        choices=("train", "test"),
        default="test",
        help="which side of the split to score (with --train-fraction)",
    )
    ev.add_argument(
        "--train-fraction",
        type=float,
        default=None,
        help="re-derive the train/test split with this fraction",
    )
    ev.add_argument(
        "--stratified", action="store_true", help="stratify the split by class"
    )
    ev.add_argument("--split-seed", type=int, default=0, help="split seed")
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
