"""End-to-end checks of the command-line interface.

Commands are invoked in-process through ``relnet.cli.main`` so exit
codes and outputs can be asserted directly; one smoke test goes through
``python -m relnet`` to cover the module entry point.
"""

import contextlib
import copy
import importlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relnet
from relnet.cli import (
    ConfigError,
    ModelSpec,
    _load_tnd_samples,
    main,
    parse_experiment_config,
)
from relnet.data import (
    MultiTaskDataset,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    write_manifest,
)
from relnet.network import (
    MultiTaskNet,
    TaskLayerStack,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from relnet.serialize import InputError, format_float, load_json
from relnet.tensor_normal import (
    KronCovariance,
    TensorNormal,
    flip_flop_mle,
    mle_mean,
    sample,
)
from relnet.trainer import TrainConfig


def spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


def write_tnd_samples(path, n=40, dims=(3, 2, 2), seed=7):
    rng = np.random.default_rng(seed)
    dist = TensorNormal(
        mean=rng.standard_normal(dims),
        cov=KronCovariance([spd(rng, d) for d in dims]),
    )
    draws = sample(dist, rng, size=n)
    doc = {
        "dims": list(dims),
        "samples": [[float(v) for v in x.ravel()] for x in draws],
    }
    path.write_text(json.dumps(doc))
    return [np.asarray(x) for x in draws]


OMEGA = [
    [1.0, 0.8, 0.0],
    [0.8, 1.0, 0.0],
    [0.0, 0.0, 1.0],
]


def experiment_config(variant="drn", seed=0, epochs=2, output_dir="out"):
    return {
        "schema_version": 1,
        "variant": variant,
        "data": {
            "synthetic": {
                "num_tasks": 3,
                "feature_dim": 6,
                "num_classes": 3,
                "samples_per_task": 12,
                "task_covariance": OMEGA,
                "noise_scale": 1.0,
                "seed": seed,
                "test_samples_per_task": 30,
            }
        },
        "model": {"trunk_widths": [], "bottleneck_width": 4, "tied_init": True},
        "train": {
            "learning_rate": 0.01,
            "momentum": 0.5,
            "batch_size": 8,
            "epochs": epochs,
            "prior_weight": 0.003 if variant != "stl" else 0.0,
            "epsilon_ridge": 1.0,
            "seed": seed,
        },
        "output_dir": output_dir,
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestTndFit:
    def test_reported_log_likelihood_matches_library(self, tmp_path):
        """The JSON report agrees exactly with an in-process fit."""
        inp = tmp_path / "samples.json"
        out = tmp_path / "fit.json"
        draws = write_tnd_samples(inp)
        code = main(["tnd-fit", "--input", str(inp), "--out", str(out)])
        assert code == 0
        doc = load_json(out)
        want = flip_flop_mle(draws, mle_mean(draws))
        assert doc["converged"] is True
        assert doc["log_likelihood"] == want.log_likelihood
        assert doc["iterations"] == want.iterations

    def test_factor_traces_are_normalized(self, tmp_path):
        """All reported factors carry unit trace; scale holds the rest."""
        inp = tmp_path / "samples.json"
        out = tmp_path / "fit.json"
        write_tnd_samples(inp)
        assert main(["tnd-fit", "--input", str(inp), "--out", str(out)]) == 0
        doc = load_json(out)
        for factor in doc["factors"]:
            assert np.trace(np.asarray(factor)) == pytest.approx(1.0)
        assert doc["scale"] > 0

    def test_repeated_sample_exits_numeric_failure(self, tmp_path, capsys):
        """Zero scatter cannot be fit; exit code 3."""
        inp = tmp_path / "samples.json"
        flat = list(range(12))
        inp.write_text(
            json.dumps({"dims": [3, 2, 2], "samples": [flat, flat]})
        )
        code = main(["tnd-fit", "--input", str(inp), "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert "estimation failed" in capsys.readouterr().err

    def test_malformed_json_exits_with_location(self, tmp_path, capsys):
        """Parse errors exit 1 and name the line/column."""
        inp = tmp_path / "bad.json"
        inp.write_text("{ nope")
        code = main(["tnd-fit", "--input", str(inp), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_sample_length_mismatch_exits_usage(self, tmp_path, capsys):
        inp = tmp_path / "bad.json"
        inp.write_text(json.dumps({"dims": [2, 2, 2], "samples": [[1.0, 2.0]]}))
        code = main(["tnd-fit", "--input", str(inp), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "expected 8" in capsys.readouterr().err

    def test_sweep_starved_fit_exits_non_convergence(self, tmp_path, capsys):
        """A one-sweep budget reports the partial fit with exit code 2."""
        inp = tmp_path / "samples.json"
        out = tmp_path / "fit.json"
        write_tnd_samples(inp)
        code = main(
            ["tnd-fit", "--input", str(inp), "--out", str(out), "--max-iter", "1"]
        )
        assert code == 2
        doc = load_json(out)
        assert doc["converged"] is False
        assert doc["iterations"] == 1
        assert "no convergence" in capsys.readouterr().err


class TestTrain:
    def test_smoke_outputs_exist_and_parse(self, tmp_path, capsys):
        """A short run writes the model, report, timings, relationships."""
        cfg = write_config(tmp_path, experiment_config(epochs=1))
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert load_json(out / "model.json")["schema_version"] == 1
        report = (out / "report.csv").read_text().split("\n")
        assert report[0].startswith("epoch,objective,train_acc_")
        assert (out / "timings.csv").read_text().startswith("epoch,sgd_seconds")
        for layer in ("bottleneck", "classifier"):
            rel = load_json(out / f"relationship_{layer}.json")
            assert rel["layer"] == layer
            assert np.asarray(rel["correlation"]).shape == (3, 3)

    def test_stl_writes_no_relationship_files(self, tmp_path):
        """Independent training reports accuracies but no relationships."""
        cfg = write_config(tmp_path, experiment_config(variant="stl", epochs=1))
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "report.csv").exists()
        assert not list(out.glob("relationship_*.json"))

    def test_drn8_has_single_task_layer(self, tmp_path):
        """The classifier-only variant moves the bottleneck into the trunk."""
        cfg = write_config(tmp_path, experiment_config(variant="drn8", epochs=1))
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        model = load_json(out / "model.json")
        assert len(model["trunk"]) == 1
        assert model["stack"]["layer_ids"] == ["classifier"]
        assert (out / "relationship_classifier.json").exists()
        assert not (out / "relationship_bottleneck.json").exists()

    def test_same_config_and_seed_is_byte_identical(self, tmp_path):
        """Reported CSV and relationship JSON reproduce exactly."""
        cfg_a = write_config(
            tmp_path, experiment_config(epochs=2, output_dir="a"), "a.json"
        )
        cfg_b = write_config(
            tmp_path, experiment_config(epochs=2, output_dir="b"), "b.json"
        )
        assert main(["train", "--config", str(cfg_a)]) == 0
        assert main(["train", "--config", str(cfg_b)]) == 0
        for name in ("report.csv", "relationship_bottleneck.json", "model.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_unknown_config_key_exits_usage(self, tmp_path, capsys):
        doc = experiment_config()
        doc["train"]["learning_rte"] = 0.5
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 1
        assert "learning_rte" in capsys.readouterr().err

    def test_stl_with_prior_weight_exits_usage(self, tmp_path, capsys):
        doc = experiment_config(variant="stl")
        doc["train"]["prior_weight"] = 0.5
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 1
        assert "independently" in capsys.readouterr().err

    def test_missing_output_dir_exits_usage(self, tmp_path, capsys):
        doc = experiment_config()
        del doc["output_dir"]
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 1
        assert "output" in capsys.readouterr().err

    def test_non_finite_feature_exits_usage(self, tmp_path, capsys):
        """A ``nan`` feature is rejected at load time, naming file and line."""
        ds, _ = generate_synthetic(
            SyntheticSpec(2, 4, 3, 12, np.eye(2), seed=5, task_names=("t0", "t1"))
        )
        write_manifest(ds, tmp_path / "data")
        csv = tmp_path / "data" / "t1.csv"
        lines = csv.read_text().split("\n")
        lines[1] = "nan" + lines[1][lines[1].index(","):]
        csv.write_text("\n".join(lines))
        doc = experiment_config(epochs=1)
        doc["data"] = {"manifest": "data/manifest.json"}
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 1
        assert "t1.csv:2: non-finite feature value" in capsys.readouterr().err

    def test_out_flag_overrides_config_dir(self, tmp_path):
        cfg = write_config(tmp_path, experiment_config(epochs=1))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "z")]) == 0
        assert (tmp_path / "z" / "report.csv").exists()
        assert not (tmp_path / "out").exists()


class TestEval:
    def make_balanced_manifest(self, tmp_path, dim=5, tasks=("a", "b")):
        rng = np.random.default_rng(3)
        features = [rng.standard_normal((9, dim)) for _ in tasks]
        labels = [np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])] * len(tasks)
        ds = MultiTaskDataset(list(tasks), features, labels, num_classes=3)
        return write_manifest(ds, tmp_path / "data")

    def test_constant_predictor_scores_one_third(self, tmp_path, capsys):
        """All-zero weights predict class 0; balanced data scores 1/3."""
        manifest = self.make_balanced_manifest(tmp_path)
        stack = TaskLayerStack(
            ["classifier"],
            [np.zeros((5, 3, 2))],
            [np.zeros((2, 3))],
            ["softmax"],
        )
        net = MultiTaskNet(5, 3, 2, [], stack)
        model = tmp_path / "model.json"
        save_checkpoint(net, model, task_names=["a", "b"])
        code = main(["eval", "--model", str(model), "--data", str(manifest)])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        third = format_float(1.0 / 3.0)
        assert lines[0] == "task,accuracy"
        assert lines[1] == f"a,{third}"
        assert lines[2] == f"b,{third}"
        assert lines[3] == f"average,{third}"

    def test_eval_reproduces_final_train_accuracy(self, tmp_path, capsys):
        """Scoring the training fold matches the report's last epoch."""
        ds, _ = generate_synthetic(
            SyntheticSpec(2, 6, 3, 24, np.eye(2), seed=5, task_names=("t0", "t1"))
        )
        manifest = write_manifest(ds, tmp_path / "data")
        doc = experiment_config(epochs=3)
        doc["data"] = {"manifest": "data/manifest.json"}
        doc["split"] = {"train_fraction": 0.5, "stratified": True, "seed": 3}
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()

        report = (tmp_path / "out" / "report.csv").read_text().strip().split("\n")
        header = report[0].split(",")
        last = report[-1].split(",")
        want = {
            h[len("train_acc_"):]: last[i]
            for i, h in enumerate(header)
            if h.startswith("train_acc_")
        }

        code = main(
            [
                "eval",
                "--model", str(tmp_path / "out" / "model.json"),
                "--data", str(manifest),
                "--fold", "train",
                "--train-fraction", "0.5",
                "--stratified",
                "--split-seed", "3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        got = dict(line.split(",") for line in lines[1:-1])
        assert got == want

    def test_feature_dim_mismatch_exits_usage(self, tmp_path, capsys):
        manifest = self.make_balanced_manifest(tmp_path, dim=4)
        stack = TaskLayerStack(
            ["classifier"], [np.zeros((5, 3, 2))], [np.zeros((2, 3))], ["softmax"]
        )
        net = MultiTaskNet(5, 3, 2, [], stack)
        model = tmp_path / "model.json"
        save_checkpoint(net, model, task_names=["a", "b"])
        assert main(["eval", "--model", str(model), "--data", str(manifest)]) == 1
        assert "feature dim" in capsys.readouterr().err

    def test_empty_fold_exits_usage(self, tmp_path, capsys):
        """A split that leaves no test rows cannot be scored."""
        manifest = self.make_balanced_manifest(tmp_path)
        stack = TaskLayerStack(
            ["classifier"], [np.zeros((5, 3, 2))], [np.zeros((2, 3))], ["softmax"]
        )
        net = MultiTaskNet(5, 3, 2, [], stack)
        model = tmp_path / "model.json"
        save_checkpoint(net, model, task_names=["a", "b"])
        code = main(
            [
                "eval",
                "--model", str(model),
                "--data", str(manifest),
                "--fold", "test",
                "--train-fraction", "0.99",
            ]
        )
        assert code == 1
        assert "test fold is empty" in capsys.readouterr().err


class TestExportRelationship:
    def trained_dir(self, tmp_path):
        cfg = write_config(tmp_path, experiment_config(epochs=2))
        assert main(["train", "--config", str(cfg)]) == 0
        return tmp_path / "out"

    def test_json_export_matches_stored_file(self, tmp_path, capsys):
        out = self.trained_dir(tmp_path)
        capsys.readouterr()
        code = main(
            ["export-relationship", "--model-dir", str(out), "--layer", "bottleneck"]
        )
        assert code == 0
        got = capsys.readouterr().out
        assert got == (out / "relationship_bottleneck.json").read_text()

    def test_json_and_csv_agree_numerically(self, tmp_path, capsys):
        out = self.trained_dir(tmp_path)
        capsys.readouterr()
        main(["export-relationship", "--model-dir", str(out), "--layer", "classifier"])
        doc = json.loads(capsys.readouterr().out)
        main(
            [
                "export-relationship",
                "--model-dir", str(out),
                "--layer", "classifier",
                "--format", "csv",
            ]
        )
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "task," + ",".join(doc["task_names"])
        for row_line, row in zip(lines[1:], doc["correlation"]):
            cells = row_line.split(",")[1:]
            np.testing.assert_array_equal(
                [float(c) for c in cells], np.asarray(row, dtype=float)
            )

    def test_export_import_export_is_byte_stable(self, tmp_path):
        """Re-exporting a previously exported file reproduces its bytes."""
        out = self.trained_dir(tmp_path)
        first = tmp_path / "first.json"
        assert (
            main(
                [
                    "export-relationship",
                    "--model-dir", str(out),
                    "--layer", "bottleneck",
                    "--out", str(first),
                ]
            )
            == 0
        )
        redir = tmp_path / "reimported"
        redir.mkdir()
        (redir / "relationship_bottleneck.json").write_bytes(first.read_bytes())
        second = tmp_path / "second.json"
        assert (
            main(
                [
                    "export-relationship",
                    "--model-dir", str(redir),
                    "--layer", "bottleneck",
                    "--out", str(second),
                ]
            )
            == 0
        )
        assert first.read_bytes() == second.read_bytes()

    def test_identity_matrix_passes_through(self, tmp_path, capsys):
        """An identity relationship is emitted as an exact identity."""
        rel_dir = tmp_path / "model"
        rel_dir.mkdir()
        (rel_dir / "relationship_classifier.json").write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "layer": "classifier",
                    "task_names": ["a", "b"],
                    "correlation": [[1.0, 0.0], [0.0, 1.0]],
                }
            )
        )
        code = main(
            [
                "export-relationship",
                "--model-dir", str(rel_dir),
                "--layer", "classifier",
                "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == "a,1,0"
        assert lines[2] == "b,0,1"

    def test_missing_layer_exits_usage(self, tmp_path, capsys):
        out = self.trained_dir(tmp_path)
        code = main(
            ["export-relationship", "--model-dir", str(out), "--layer", "nope"]
        )
        assert code == 1
        assert "no such file" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tnd-fit", "--input", "x.json"])
        assert exc.value.code == 1

    def test_module_entry_point_runs(self, tmp_path):
        """``python -m relnet`` wires up the same CLI."""
        inp = tmp_path / "samples.json"
        out = tmp_path / "fit.json"
        write_tnd_samples(inp, n=20)
        proc = subprocess.run(
            [
                sys.executable, "-m", "relnet",
                "tnd-fit", "--input", str(inp), "--out", str(out),
            ],
            capture_output=True,
            text=True,
            # Run from the directory holding the package so the child
            # finds it without relying on the caller's PYTHONPATH.
            cwd=Path(relnet.__file__).resolve().parents[1],
        )
        assert proc.returncode == 0
        assert load_json(out)["converged"] is True


def test_commands_import_no_scipy(tmp_path):
    """``relnet train`` and ``relnet tnd-fit`` run on numpy alone: a fresh
    interpreter that runs both never imports scipy."""
    cfg = write_config(tmp_path, experiment_config(epochs=1))
    inp = tmp_path / "samples.json"
    write_tnd_samples(inp, n=20)
    script = "\n".join([
        "import sys",
        "from relnet.cli import main",
        f"assert main(['train', '--config', {str(cfg)!r}]) == 0",
        f"assert main(['tnd-fit', '--input', {str(inp)!r},"
        f" '--out', {str(tmp_path / 'fit.json')!r}]) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=Path(relnet.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_package_exports_are_the_module_lists():
    """``relnet.__all__`` is the ``__all__`` of ``data``, ``network``,
    ``tensor``, ``tensor_normal`` and ``trainer``, in that order, then
    ``__version__``; no name repeats, and each is the module's object."""
    modules = [
        importlib.import_module(f"relnet.{name}")
        for name in ("data", "network", "tensor", "tensor_normal", "trainer")
    ]
    names = [name for module in modules for name in module.__all__]
    assert relnet.__all__ == [*names, "__version__"]
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(relnet, name) is getattr(module, name), name


# --------------------------------------------------------------------------
# rejected input: exit 1, the field or file named, no traceback


def with_field(path, value):
    """A ``train`` command whose config has ``value`` at the dotted
    ``path``."""

    def setup(tmp_path):
        doc = experiment_config(epochs=1)
        *sections, key = path.split(".")
        target = doc
        for section in sections:
            target = target[section]
        target[key] = value
        return ["train", "--config", str(write_config(tmp_path, doc))]

    return setup


def with_manifest(command, text):
    """A ``train`` or ``eval`` command reading a manifest with the given
    text (``None``: no manifest file)."""

    def setup(tmp_path):
        manifest = tmp_path / "manifest.json"
        if text is not None:
            manifest.write_text(text)
        if command == "train":
            doc = experiment_config(epochs=1)
            doc["data"] = {"manifest": "manifest.json"}
            return ["train", "--config", str(write_config(tmp_path, doc))]
        return ["eval", "--model", str(tiny_checkpoint(tmp_path)), "--data", str(manifest)]

    return setup


def with_task_file(content, name="a"):
    """A ``train`` command on a manifest whose one task, ``name``, has
    the task file ``a.csv`` holding the bytes ``content`` (``None``: it
    is a directory)."""
    task = {"name": name, "path": "a.csv"}
    manifest = json.dumps({"schema_version": 1, "num_classes": 2, "tasks": [task]})

    def setup(tmp_path):
        if content is None:
            (tmp_path / "a.csv").mkdir()
        else:
            (tmp_path / "a.csv").write_bytes(content)
        return with_manifest("train", manifest)(tmp_path)

    return setup


def tiny_checkpoint(tmp_path):
    stack = TaskLayerStack(
        ["classifier"], [np.zeros((5, 3, 2))], [np.zeros((2, 3))], ["softmax"]
    )
    path = tmp_path / "model.json"
    save_checkpoint(MultiTaskNet(5, 3, 2, [], stack), path, task_names=["a", "b"])
    return path


def with_samples(dims, n=20, bad=None, flags=(), value=float("nan")):
    """A ``tnd-fit`` command on ``n`` samples of ``dims`` (written as
    given, so they may be invalid), with ``bad = (sample, entry)`` set
    to ``value``."""

    def setup(tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((n, int(np.prod(dims)))).tolist()
        if bad is not None:
            samples[bad[0]][bad[1]] = value
        inp = tmp_path / "samples.json"
        inp.write_text(json.dumps({"dims": dims, "samples": samples}))
        out = tmp_path / "fit.json"
        return ["tnd-fit", "--input", str(inp), "--out", str(out), *flags]

    return setup


def with_flags(command, *flags):
    """A valid ``train`` or ``eval`` command with extra ``flags``."""

    def setup(tmp_path):
        if command == "train":
            cfg = write_config(tmp_path, experiment_config(epochs=1))
            return ["train", "--config", str(cfg), *flags]
        manifest = TestEval().make_balanced_manifest(tmp_path)
        return [
            "eval", "--model", str(tiny_checkpoint(tmp_path)),
            "--data", str(manifest), *flags,
        ]

    return setup


def with_checkpoint(path, value):
    """An ``eval`` command on a valid manifest and a tiny checkpoint
    holding ``value`` at the key path ``path``."""

    def setup(tmp_path):
        argv = with_flags("eval")(tmp_path)
        model = Path(argv[argv.index("--model") + 1])
        model.write_text(json.dumps(with_value(load_json(model), path, value)))
        return argv

    return setup


def with_relationship(correlation, names=("a", "b")):
    """CSV export of a relationship file holding ``correlation`` and the
    task ``names``."""

    def setup(tmp_path):
        (tmp_path / "relationship_classifier.json").write_text(
            json.dumps({"task_names": list(names), "correlation": correlation})
        )
        return [
            "export-relationship", "--model-dir", str(tmp_path),
            "--layer", "classifier", "--format", "csv",
        ]

    return setup


def with_output(command, out):
    """A valid ``command`` writing to ``out`` under ``tmp_path``, which
    holds a file ``a_file`` and no ``missing`` directory."""

    def setup(tmp_path):
        (tmp_path / "a_file").write_text("")
        target = str(tmp_path / out)
        if command == "tnd-fit":
            argv = with_samples([3, 2, 2])(tmp_path)
            argv[argv.index("--out") + 1] = target
            return argv
        if command == "train":
            return with_flags("train", "--out", target)(tmp_path)
        return with_relationship(np.eye(2).tolist())(tmp_path) + ["--out", target]

    return setup


REJECTED = {
    "batch_size_float": (with_field("train.batch_size", 2.5), "config.train.batch_size"),
    "epochs_float": (with_field("train.epochs", 1.5), "config.train.epochs"),
    "seed_negative": (with_field("train.seed", -1), "config.train.seed"),
    "shared_task_sigma_string": (
        with_field("train.shared_task_sigma", "no"),
        "config.train.shared_task_sigma",
    ),
    "learning_rate_bool": (
        with_field("train.learning_rate", True),
        "config.train.learning_rate",
    ),
    "lr_gamma_nan": (with_field("train.lr_gamma", float("nan")), "config.train.lr_gamma"),
    "noise_scale_nan": (
        with_field("data.synthetic.noise_scale", float("nan")),
        "config.data.synthetic.noise_scale",
    ),
    "epsilon_ridge_inf": (
        with_field("train.epsilon_ridge", float("inf")),
        "config.train.epsilon_ridge",
    ),
    "task_covariance_not_spd": (
        with_field("data.synthetic.task_covariance", [[1, 2, 0], [2, 1, 0], [0, 0, 1]]),
        "config.data.synthetic.task_covariance",
    ),
    "task_covariance_strings_and_bools": (
        with_field(
            "data.synthetic.task_covariance", [["1", False, 0], [0, True, 0], [0, 0, 1]]
        ),
        "config.data.synthetic.task_covariance[0] entry 0",
    ),
    "task_covariance_nan": (
        with_field("data.synthetic.task_covariance", np.where(
            np.eye(3) > 0, 1.0, float("nan")).tolist()),
        "config.data.synthetic.task_covariance",
    ),
    "train_manifest_missing": (with_manifest("train", None), "manifest.json"),
    "train_manifest_invalid_json": (
        with_manifest("train", "{ nope"),
        "manifest.json: invalid JSON at line 1",
    ),
    "train_manifest_bad_value": (
        with_manifest(
            "train",
            '{"schema_version": 1, "num_classes": "three", "tasks": []}',
        ),
        "manifest.json: malformed manifest",
    ),
    "train_manifest_num_classes_float": (
        with_manifest(
            "train", '{"schema_version": 1, "num_classes": 2.7, "tasks": []}'
        ),
        "manifest.json: malformed manifest: num_classes must be an integer",
    ),
    "train_manifest_num_classes_bool": (
        with_manifest(
            "train", '{"schema_version": 1, "num_classes": true, "tasks": []}'
        ),
        "manifest.json: malformed manifest: num_classes must be an integer",
    ),
    "train_manifest_num_classes_string": (
        with_manifest(
            "train", '{"schema_version": 1, "num_classes": "3", "tasks": []}'
        ),
        "manifest.json: malformed manifest: num_classes must be an integer",
    ),
    "train_manifest_feature_dim_float": (
        with_manifest(
            "train",
            '{"schema_version": 1, "num_classes": 3, "feature_dim": 2.9, "tasks": []}',
        ),
        "manifest.json: malformed manifest: feature_dim must be an integer",
    ),
    "train_task_file_directory": (with_task_file(None), "a.csv: Is a directory"),
    "train_manifest_name_with_newline": (
        with_task_file(b"0.5,1\n0.25,0\n", name="a\nb"),
        "manifest.json: bad task name 'a\\nb'",
    ),
    "train_task_file_not_utf8": (
        with_task_file(b"0.5,1\n\xff,0\n"),
        "a.csv: not UTF-8 text at byte 6",
    ),
    "eval_manifest_invalid_json": (
        with_manifest("eval", "{ nope"),
        "manifest.json: invalid JSON at line 1",
    ),
    "eval_manifest_bad_value": (
        with_manifest(
            "eval",
            '{"schema_version": 1, "num_classes": "three", "tasks": []}',
        ),
        "manifest.json: malformed manifest",
    ),
    "tnd_dims_bool": (with_samples([True, 3, 4]), "dims[0]"),
    "tnd_max_iter_zero": (with_samples([3, 2, 2], flags=("--max-iter", "0")), "--max-iter"),
    "tnd_tol_negative": (with_samples([3, 2, 2], flags=("--tol", "-1")), "--tol"),
    "tnd_tol_nan": (with_samples([3, 2, 2], flags=("--tol", "nan")), "--tol"),
    "tnd_non_finite_entry": (with_samples([3, 2, 2], bad=(1, 5)), "sample 1 entry 5"),
    "tnd_string_entry": (
        with_samples([3, 2, 2], bad=(1, 5), value="2"),
        "sample 1 entry 5 must be a finite number",
    ),
    "tnd_bool_entry": (
        with_samples([3, 2, 2], bad=(1, 5), value=True),
        "sample 1 entry 5 must be a finite number",
    ),
    "eval_checkpoint_num_tasks_float": (
        with_checkpoint(("num_tasks",), 2.7),
        "model.json: malformed checkpoint: num_tasks must be an integer",
    ),
    "eval_checkpoint_layer_num_tasks": (
        with_checkpoint(("stack", "layers", 0, "num_tasks"), 99),
        "model.json: malformed checkpoint: stack.layers[0].num_tasks is 99, "
        "but num_tasks is 2",
    ),
    "eval_checkpoint_nan_weight": (
        with_checkpoint(("stack", "layers", 0, "weight", 4), float("nan")),
        "model.json: malformed checkpoint: stack.layers[0].weight entry 4",
    ),
    "tnd_too_few_samples": (with_samples([16, 2, 2], n=2), "mode 1 needs"),
    "train_seed_flag_negative": (with_flags("train", "--seed", "-1"), "--seed"),
    "eval_split_seed_negative": (
        with_flags("eval", "--train-fraction", "0.5", "--split-seed", "-1"),
        "seed must be non-negative",
    ),
    "tnd_out_missing_dir": (
        with_output("tnd-fit", "missing/fit.json"),
        "missing/fit.json: No such file or directory",
    ),
    "train_out_under_file": (
        with_output("train", "a_file/out"),
        "a_file/out: Not a directory",
    ),
    "export_out_missing_dir": (
        with_output("export-relationship", "missing/x.csv"),
        "missing/x.csv: No such file or directory",
    ),
    "relationship_not_numeric": (
        with_relationship([["x", 0], [0, 1]]),
        "relationship_classifier.json",
    ),
    "relationship_bools_and_strings": (
        with_relationship([[True, "0.5"], ["0.5", True]]),
        "relationship_classifier.json: correlation[0] entry 0",
    ),
    "relationship_name_with_comma": (
        with_relationship(np.eye(2).tolist(), ["a,b", "c"]),
        "relationship_classifier.json: task_names: bad task name 'a,b'",
    ),
    "relationship_duplicate_names": (
        with_relationship(np.eye(2).tolist(), ["a", "a"]),
        "relationship_classifier.json: task_names: task names must be unique",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_exits_usage_naming_the_field(case, tmp_path, capsys):
    """Each bad value or file exits 1 with a message naming it; an
    uncaught exception here would be a traceback."""
    setup, named = REJECTED[case]
    argv = setup(tmp_path)
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1, err
    assert named in err
    assert "Traceback" not in err


def test_tnd_fit_checks_its_output_before_the_fit(tmp_path, capsys, monkeypatch):
    """An output under a file is rejected without running the fit."""

    def no_fit(*args, **kwargs):
        raise AssertionError("the fit ran")

    monkeypatch.setattr("relnet.cli.flip_flop_mle", no_fit)
    argv = with_output("tnd-fit", "a_file/fit.json")(tmp_path)
    assert main(argv) == 1
    assert "a_file/fit.json: Not a directory" in capsys.readouterr().err


def test_too_few_samples_names_the_smallest_count(tmp_path, capsys):
    """dims (16, 2, 2) need ``(n - 1) * 4 >= 16``: 5 samples pass the
    rank condition and 4 do not."""
    argv = with_samples([16, 2, 2], n=4)(tmp_path)
    assert main(argv) == 1
    assert "mode 1 needs (n - 1) * 4 >= 16, so at least 5 samples" in (
        capsys.readouterr().err
    )
    argv = with_samples([16, 2, 2], n=5)(tmp_path)
    assert main(argv) != 1


# --------------------------------------------------------------------------
# the config parser on any JSON value

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)


def config_paths(doc, prefix=()):
    """Every key path of a config document, sections included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from config_paths(value, prefix + (key,))


def manifest_config():
    doc = experiment_config()
    doc["data"] = {"manifest": "data/manifest.json"}
    doc["split"] = {"train_fraction": 0.5, "stratified": True, "seed": 3}
    return doc


CONFIG_FIELDS = [("synthetic", p) for p in config_paths(experiment_config())] + [
    ("manifest", p) for p in config_paths(manifest_config())
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CONFIG_FIELDS), JSON_VALUES)
def test_any_json_value_in_any_field_is_parsed_or_a_config_error(where, value):
    kind, path = where
    doc = experiment_config() if kind == "synthetic" else manifest_config()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = copy.deepcopy(value)
    try:
        parse_experiment_config(doc, ".")
    except ConfigError:
        pass


# --------------------------------------------------------------------------
# the manifest and the tnd-fit samples document on any JSON value

MANIFEST = {
    "schema_version": 1,
    "num_classes": 2,
    "feature_dim": 2,
    "tasks": [{"name": "a", "path": "a.csv"}, {"name": "b", "path": "b.csv"}],
}


def json_paths(doc, prefix=()):
    """Every key and list-index path of a JSON document."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


def with_value(doc, path, value):
    """A copy of ``doc`` holding ``value`` at ``path``."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = copy.deepcopy(value)
    return doc


class Loaded(Exception):
    """Raised in place of building the network, once the data loaded."""


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(json_paths(MANIFEST))), JSON_VALUES)
@example(("tasks", 0, "path"), "a\0.csv")
def test_any_json_value_in_any_manifest_field_loads_or_names_the_manifest(
    where, value
):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("a", "b"):
            (tmp / f"{name}.csv").write_text("0.5,1.5,0\n2.5,3.5,1\n")
        manifest = tmp / "manifest.json"
        manifest.write_text(json.dumps(with_value(MANIFEST, where, value)))
        doc = experiment_config(epochs=0)
        doc["data"] = {"manifest": "manifest.json"}
        argv = ["train", "--config", str(write_config(tmp, doc))]
        err = io.StringIO()
        with mock.patch("relnet.cli.build_network", side_effect=Loaded):
            with contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except Loaded:
                    return
        assert code == 1
        assert str(manifest) in err.getvalue()


SAMPLES = {"dims": [3, 2, 2], "samples": np.eye(12)[:8].tolist()}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(
        [("dims",), ("dims", 0), ("dims", 2), ("samples",), ("samples", 0)]
        + [("samples", 7), ("samples", 0, 0), ("samples", 5, 11)]
    ),
    JSON_VALUES,
)
@example(("samples", 0, 0), 10**400)
@example(("samples", 0, 0), "2")
@example(("samples", 0, 0), True)
def test_any_json_value_in_dims_or_a_sample_is_loaded_or_a_config_error(
    where, value
):
    """A document loads only if every sample entry is a JSON number."""
    doc = with_value(SAMPLES, where, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.json"
        path.write_text(json.dumps(doc))
        try:
            samples = _load_tnd_samples(path)
        except ConfigError as exc:
            assert str(path) in str(exc)
            return
    assert [s.shape for s in samples] == [tuple(doc["dims"])] * len(doc["samples"])
    assert all(type(v) in (int, float) for s in doc["samples"] for v in s)


def tiny_checkpoint_doc():
    """A checkpoint with one trunk layer and two stack layers, as JSON."""
    net = init_network(2, [2], [2, 2], 2, np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_checkpoint(net, path, task_names=["a", "b"])
        return load_json(path)


CHECKPOINT = tiny_checkpoint_doc()


def valid_task_names(names):
    """Non-empty, unique, non-empty strings without commas."""
    return (
        bool(names)
        and all(isinstance(n, str) and n and "," not in n for n in names)
        and len(set(names)) == len(names)
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(json_paths(CHECKPOINT))), JSON_VALUES)
@example(("num_tasks",), 2.7)
@example(("trunk", 0, "weight", 1), float("nan"))
@example(("stack", "layers", 1, "bias", 0), "2")
@example(("task_names",), ["a"])
@example(("trunk", 0, "in_dim"), -1)
def test_any_json_value_in_any_checkpoint_field_loads_or_names_the_file(
    where, value
):
    """A checkpoint loads into a finite net with the counts, dims and
    task names it states, or raises an ``InputError`` naming the file."""
    doc = with_value(CHECKPOINT, where, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        try:
            net, names = load_checkpoint(path)
        except InputError as exc:
            assert str(path) in str(exc)
            return
    assert np.isfinite(net.params).all()
    counts = (net.input_dim, net.num_classes, net.num_tasks)
    assert counts == (doc["input_dim"], doc["num_classes"], doc["num_tasks"])
    assert names is None or (len(names) == net.num_tasks and valid_task_names(names))
    for layer, entry in zip(net.trunk, doc["trunk"]):
        assert layer.weight.shape == (entry["in_dim"], entry["out_dim"])
    for w, entry in zip(net.stack.weights, doc["stack"]["layers"]):
        assert w.shape == (entry["in_dim"], entry["out_dim"], net.num_tasks)


RELATIONSHIP = {
    "schema_version": 1,
    "layer": "classifier",
    "task_names": ["a", "b"],
    "correlation": [[1.0, 0.5], [0.5, 1.0]],
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(json_paths(RELATIONSHIP))),
    JSON_VALUES,
    st.sampled_from(["json", "csv"]),
)
@example(("correlation", 0, 0), True, "csv")
@example(("correlation", 1, 0), "0.5", "csv")
@example(("layer",), float("nan"), "json")
@example(("task_names", 0), "a,b", "csv")
@example(("task_names", 1), "a", "json")
def test_any_json_value_in_any_relationship_field_exports_or_names_the_file(
    where, value, fmt
):
    """``export-relationship`` exits 0 on a square matrix of JSON numbers
    with one row per task named under the task-name rule, and otherwise
    exits 1 naming the file."""
    doc = with_value(RELATIONSHIP, where, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "relationship_classifier.json"
        path.write_text(json.dumps(doc))
        argv = [
            "export-relationship", "--model-dir", tmp,
            "--layer", "classifier", "--format", fmt,
        ]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(err):
                code = main(argv)
    if code == 1:
        assert str(path) in err.getvalue()
        return
    assert code == 0
    corr = doc["correlation"]
    assert all(type(v) in (int, float) and math.isfinite(v) for r in corr for v in r)
    assert valid_task_names(doc["task_names"])


# --------------------------------------------------------------------------
# README


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_block():
    """The ``jsonc`` config example of README.md, comments removed."""
    block = re.search(r"```jsonc\n(.*?)```", README.read_text(), re.S).group(1)
    return json.loads(re.sub(r"\s*//[^\n]*", "", block))


def test_readme_config_keys_are_the_parsed_keys():
    """Every section of README's config example lists exactly the keys
    the parser accepts, and the example parses."""
    doc = readme_config_block()
    assert set(doc) == {
        "schema_version", "variant", "data", "split", "model", "train", "output_dir"
    }
    assert set(doc["data"]) == {"manifest", "synthetic"}
    for section, cls in (
        (doc["data"]["synthetic"], SyntheticSpec),
        (doc["split"], SplitSpec),
        (doc["model"], ModelSpec),
        (doc["train"], TrainConfig),
    ):
        assert set(section) == {f.name for f in fields(cls)}
    del doc["data"]["manifest"], doc["split"]
    parse_experiment_config(doc, ".")


def test_readme_library_example_runs():
    """README's "Library in one example" block runs in a fresh
    interpreter with warnings as errors and prints a 2x2 relationship
    matrix with a unit diagonal."""
    block = re.search(
        r"## Library in one example\n\n```python\n(.*?)```", README.read_text(), re.S
    ).group(1)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", block],
        capture_output=True,
        text=True,
        cwd=Path(relnet.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    printed = re.findall(r"[-+]?\d+\.\d*(?:e[-+]?\d+)?", proc.stdout)
    matrix = np.array([float(v) for v in printed]).reshape(2, 2)
    np.testing.assert_array_equal(np.diag(matrix), 1.0)
