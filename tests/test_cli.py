"""End-to-end checks of the command-line interface.

Commands are invoked in-process through ``relnet.cli.main`` so exit
codes and outputs can be asserted directly; one smoke test goes through
``python -m relnet`` to cover the module entry point.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relnet
from relnet.cli import main
from relnet.data import (
    MultiTaskDataset,
    SyntheticSpec,
    generate_synthetic,
    write_manifest,
)
from relnet.network import MultiTaskNet, TaskLayerStack, save_checkpoint
from relnet.serialize import format_float, load_json
from relnet.tensor_normal import (
    KronCovariance,
    TensorNormal,
    flip_flop_mle,
    mle_mean,
    sample,
)


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
