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
import json
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    DatasetError,
    SplitError,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
    sample_task_data,
    split,
)
from .network import accuracy, init_network, load_checkpoint, save_checkpoint
from .serialize import dump_json, dumps_json, format_float, load_json
from .tensor_normal import (
    EstimationError,
    flip_flop_mle,
    mle_mean,
    normalize_identifiable,
)
from .trainer import (
    TrainConfig,
    TrainingError,
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


class ConfigError(ValueError):
    """Raised for malformed experiment configs; maps to exit code 1."""


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
    test_samples_per_task: int
    split_spec: SplitSpec | None
    trunk_widths: tuple
    bottleneck_width: int
    tied_init: bool
    train_cfg: TrainConfig
    output_dir: Path | None
    relationship_layers: tuple = field(default=())


def _require(doc: dict, where: str, required: tuple, optional: tuple) -> None:
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _as_int(doc, key, where, default=None, minimum=None):
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}, got {value}")
    return value


def _as_number(doc, key, where, default=None):
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
    return float(value)


def _as_bool(doc, key, where, default=None):
    if key not in doc:
        return default
    value = doc[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected true/false, got {value!r}")
    return value


def _parse_synthetic(doc: dict, where: str) -> tuple:
    _require(
        doc,
        where,
        required=(
            "num_tasks",
            "feature_dim",
            "num_classes",
            "samples_per_task",
            "task_covariance",
        ),
        optional=("noise_scale", "seed", "task_names", "test_samples_per_task"),
    )
    num_tasks = _as_int(doc, "num_tasks", where, minimum=1)
    cov = doc["task_covariance"]
    try:
        omega = np.asarray(cov, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.task_covariance: not a numeric matrix") from None
    if omega.shape != (num_tasks, num_tasks):
        raise ConfigError(
            f"{where}.task_covariance: expected shape "
            f"({num_tasks}, {num_tasks}), got {omega.shape}"
        )
    task_names = doc.get("task_names")
    if task_names is not None and (
        not isinstance(task_names, list)
        or not all(isinstance(n, str) for n in task_names)
    ):
        raise ConfigError(f"{where}.task_names: expected a list of strings")
    try:
        spec = SyntheticSpec(
            num_tasks=num_tasks,
            feature_dim=_as_int(doc, "feature_dim", where, minimum=1),
            num_classes=_as_int(doc, "num_classes", where, minimum=2),
            samples_per_task=_as_int(doc, "samples_per_task", where, minimum=1),
            task_covariance=omega,
            noise_scale=_as_number(doc, "noise_scale", where, default=1.0),
            seed=_as_int(doc, "seed", where, default=0, minimum=0),
            task_names=tuple(task_names) if task_names is not None else None,
        )
    except (ValueError, DatasetError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return spec, _as_int(doc, "test_samples_per_task", where, default=0, minimum=0)


def _parse_split(doc: dict, where: str) -> SplitSpec:
    _require(doc, where, required=("train_fraction",), optional=("stratified", "seed"))
    try:
        return SplitSpec(
            train_fraction=_as_number(doc, "train_fraction", where),
            stratified=_as_bool(doc, "stratified", where, default=False),
            seed=_as_int(doc, "seed", where, default=0, minimum=0),
        )
    except (ValueError, SplitError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_train(doc: dict, where: str, variant: str) -> TrainConfig:
    known = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    if variant == "stl" and doc.get("prior_weight", 0.0) != 0.0:
        raise ConfigError(
            f"{where}.prior_weight: variant 'stl' trains tasks independently; "
            "leave prior_weight unset or 0"
        )
    kwargs = dict(doc)
    if variant == "stl":
        kwargs["prior_weight"] = 0.0
    try:
        return TrainConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_experiment_config(doc, base_dir) -> ExperimentConfig:
    """Validate a config document; unknown keys are errors."""
    base_dir = Path(base_dir)
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
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
    if not isinstance(data, dict):
        raise ConfigError("config.data: expected a JSON object")
    _require(data, "config.data", required=(), optional=("manifest", "synthetic"))
    if ("manifest" in data) == ("synthetic" in data):
        raise ConfigError(
            "config.data: exactly one of 'manifest' or 'synthetic' is required"
        )
    manifest = None
    synthetic = None
    test_samples = 0
    if "manifest" in data:
        if not isinstance(data["manifest"], str):
            raise ConfigError("config.data.manifest: expected a path string")
        manifest = base_dir / data["manifest"]
    else:
        if not isinstance(data["synthetic"], dict):
            raise ConfigError("config.data.synthetic: expected a JSON object")
        synthetic, test_samples = _parse_synthetic(
            data["synthetic"], "config.data.synthetic"
        )

    split_spec = None
    if "split" in doc:
        if synthetic is not None:
            raise ConfigError(
                "config.split: splits apply to manifest data only; synthetic "
                "data uses test_samples_per_task"
            )
        if not isinstance(doc["split"], dict):
            raise ConfigError("config.split: expected a JSON object")
        split_spec = _parse_split(doc["split"], "config.split")

    model = doc.get("model", {})
    if not isinstance(model, dict):
        raise ConfigError("config.model: expected a JSON object")
    _require(
        model,
        "config.model",
        required=(),
        optional=("trunk_widths", "bottleneck_width", "tied_init"),
    )
    trunk_widths = model.get("trunk_widths", [])
    if not isinstance(trunk_widths, list) or not all(
        isinstance(w, int) and not isinstance(w, bool) and w >= 1
        for w in trunk_widths
    ):
        raise ConfigError(
            "config.model.trunk_widths: expected a list of positive integers"
        )
    bottleneck = _as_int(model, "bottleneck_width", "config.model", default=32, minimum=1)
    tied_init = _as_bool(model, "tied_init", "config.model", default=True)

    train_doc = doc.get("train", {})
    if not isinstance(train_doc, dict):
        raise ConfigError("config.train: expected a JSON object")
    train_cfg = _parse_train(train_doc, "config.train", variant)

    output_dir = None
    if "output_dir" in doc:
        if not isinstance(doc["output_dir"], str):
            raise ConfigError("config.output_dir: expected a path string")
        output_dir = base_dir / doc["output_dir"]

    return ExperimentConfig(
        variant=variant,
        manifest=manifest,
        synthetic=synthetic,
        test_samples_per_task=test_samples,
        split_spec=split_spec,
        trunk_widths=tuple(int(w) for w in trunk_widths),
        bottleneck_width=bottleneck,
        tied_init=tied_init,
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
    if cfg.synthetic is not None:
        train_ds, weights = generate_synthetic(cfg.synthetic)
        eval_ds = None
        if cfg.test_samples_per_task > 0:
            eval_ds = sample_task_data(
                weights,
                cfg.test_samples_per_task,
                cfg.synthetic.noise_scale,
                np.random.default_rng([cfg.synthetic.seed, 1]),
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
    if cfg.variant == "drn8":
        trunk = list(cfg.trunk_widths) + [cfg.bottleneck_width]
        stack = [num_classes]
    else:
        trunk = list(cfg.trunk_widths)
        stack = [cfg.bottleneck_width, num_classes]
    rng = np.random.default_rng([cfg.train_cfg.seed, 2])
    return init_network(
        feature_dim, trunk, stack, num_tasks, rng, tied_tasks=cfg.tied_init
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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object with 'dims' and 'samples'")
    _require(doc, str(path), required=("dims", "samples"), optional=())
    dims = doc["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or not all(isinstance(d, int) and d >= 1 for d in dims)
    ):
        raise ConfigError(f"{path}: dims must be three positive integers")
    samples = doc["samples"]
    if not isinstance(samples, list) or not samples:
        raise ConfigError(f"{path}: samples must be a non-empty list")
    total = dims[0] * dims[1] * dims[2]
    out = []
    for i, flat in enumerate(samples):
        arr = np.asarray(flat, dtype=float)
        if arr.shape != (total,):
            raise ConfigError(
                f"{path}: sample {i} has {arr.size} entries, expected {total}"
            )
        out.append(arr.reshape(dims))
    return out


def cmd_tnd_fit(args) -> int:
    """Fit a tensor normal to JSON samples; write the estimate as JSON."""
    try:
        samples = _load_tnd_samples(args.input)
    except ConfigError as exc:
        print(f"relnet tnd-fit: {exc}", file=sys.stderr)
        return EXIT_USAGE

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
    try:
        doc = load_json(config_path)
    except OSError as exc:
        print(f"relnet train: {config_path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(
            f"relnet train: {config_path}: invalid JSON at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_USAGE

    try:
        cfg = parse_experiment_config(doc, config_path.parent)
        if args.seed is not None:
            cfg.train_cfg = replace(cfg.train_cfg, seed=args.seed)
        output_dir = Path(args.out) if args.out else cfg.output_dir
        if output_dir is None:
            raise ConfigError("no output directory: set config.output_dir or --out")
    except ConfigError as exc:
        print(f"relnet train: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        paths = run_experiment(cfg, output_dir)
    except (DatasetError, SplitError, ConfigError) as exc:
        print(f"relnet train: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    try:
        net, task_names = load_checkpoint(args.model)
    except (OSError, ValueError) as exc:
        print(f"relnet eval: {args.model}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ds = load_manifest(args.data)
    except (OSError, DatasetError) as exc:
        print(f"relnet eval: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.train_fraction is not None:
        try:
            spec = SplitSpec(
                train_fraction=args.train_fraction,
                stratified=args.stratified,
                seed=args.split_seed,
            )
            train_ds, test_ds = split(ds, spec)
        except SplitError as exc:
            print(f"relnet eval: {exc}", file=sys.stderr)
            return EXIT_USAGE
        ds = train_ds if args.fold == "train" else test_ds
    elif args.fold == "train":
        print(
            "relnet eval: --fold requires --train-fraction to define the split",
            file=sys.stderr,
        )
        return EXIT_USAGE

    if ds.feature_dim != net.input_dim:
        print(
            f"relnet eval: feature dim {ds.feature_dim} != model input "
            f"{net.input_dim}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if ds.num_tasks != net.num_tasks:
        print(
            f"relnet eval: {ds.num_tasks} tasks != model {net.num_tasks}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if ds.num_classes != net.num_classes:
        print(
            f"relnet eval: {ds.num_classes} classes != model {net.num_classes}",
            file=sys.stderr,
        )
        return EXIT_USAGE

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
    rel_path = Path(args.model_dir) / f"relationship_{args.layer}.json"
    if not rel_path.exists():
        print(f"relnet export-relationship: no such file: {rel_path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        doc = load_json(rel_path)
    except json.JSONDecodeError as exc:
        print(
            f"relnet export-relationship: {rel_path}: invalid JSON at line "
            f"{exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        names = doc["task_names"]
        corr = doc["correlation"]
    except (KeyError, TypeError):
        print(
            f"relnet export-relationship: {rel_path}: missing task_names or "
            "correlation",
            file=sys.stderr,
        )
        return EXIT_USAGE

    if args.format == "json":
        text = dumps_json(doc)
    else:
        lines = ["task," + ",".join(names)]
        for name, row in zip(names, corr):
            lines.append(name + "," + ",".join(format_float(v) for v in row))
        text = "\n".join(lines) + "\n"

    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --------------------------------------------------------------------------
# argument wiring


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
    fit.add_argument("--tol", type=float, default=1e-8, help="convergence tolerance")
    fit.add_argument("--max-iter", type=int, default=200, help="sweep limit")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
