"""End-to-end checks of the command-line interface.

Commands are invoked in-process through ``relnet.cli.main`` so exit
codes and outputs can be asserted directly; one smoke test goes through
``python -m relnet`` to cover the module entry point.
"""

import argparse
import contextlib
import copy
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relnet
from oracles import array_object
from relnet.cli import (
    ConfigError,
    ModelSpec,
    _load_tnd_samples,
    build_parser,
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


V1_MODEL = Path(__file__).parent / "data" / "model_v1.json"


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


def run_in_the_c_locale(argv):
    """``python -m relnet`` on ``argv`` where the locale's encoding is
    ASCII: the C locale, not coerced, and no UTF-8 mode."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUTF8"}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0")
    return subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "relnet", *argv],
        capture_output=True,
        env=env,
        cwd=Path(relnet.__file__).resolve().parents[1],
    )


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

    def test_history_is_the_library_fits_history(self, tmp_path):
        """Schema 2 records the log-likelihood at the start and after
        every sweep, exactly as the in-process fit has it; the last entry
        is the reported log-likelihood."""
        inp = tmp_path / "samples.json"
        out = tmp_path / "fit.json"
        draws = write_tnd_samples(inp)
        assert main(["tnd-fit", "--input", str(inp), "--out", str(out)]) == 0
        doc = load_json(out)
        want = flip_flop_mle(draws, mle_mean(draws))
        assert doc["schema_version"] == 2
        assert doc["history"] == list(want.history)
        assert len(doc["history"]) == doc["iterations"] + 1
        assert doc["history"][-1] == doc["log_likelihood"]

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

    def test_samples_as_one_array_object_fit_alike(self, tmp_path):
        """``samples`` written as one ``(n, d)`` array object gives the
        fit of the same samples written as lists, byte for byte."""
        lists, binary = tmp_path / "lists.json", tmp_path / "binary.json"
        draws = write_tnd_samples(lists)
        flat = array_object(np.reshape(draws, (len(draws), -1)))
        binary.write_text(json.dumps({"dims": [3, 2, 2], "samples": flat}))
        fits = []
        for inp in (lists, binary):
            out = inp.with_suffix(".out")
            assert main(["tnd-fit", "--input", str(inp), "--out", str(out)]) == 0
            fits.append(out.read_bytes())
        assert fits[0] == fits[1]

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
        assert "samples must have shape [n, 8], got [1, 2]" in capsys.readouterr().err

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
        assert load_json(out / "model.json")["schema_version"] == 2
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

    def test_report_has_test_columns_at_zero_epochs(self, tmp_path):
        """A config with a held-out fold writes the ``test_acc_*``
        columns however many epochs it runs, none included."""
        headers = []
        for epochs in (0, 1):
            doc = experiment_config(epochs=epochs, output_dir=f"out{epochs}")
            cfg = write_config(tmp_path, doc, f"config{epochs}.json")
            assert main(["train", "--config", str(cfg)]) == 0
            report = tmp_path / f"out{epochs}" / "report.csv"
            headers.append(report.read_text().split("\n")[0])
        assert headers[0] == headers[1]
        assert "test_acc_task0,test_acc_task1,test_acc_task2" in headers[0]

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

    def test_non_finite_objective_exits_numeric_before_writing(self, tmp_path, capsys):
        """The weights stay finite while ``prior_weight * prior_penalty``
        overflows: exit 3 names the epoch and both terms, and no output
        is written.  The prox shrinks the weights, but the penalty's
        log-determinant term alone exceeds 1, so a ``prior_weight`` of
        1e308 takes the product past the largest float."""
        doc = experiment_config(epochs=1)
        doc["data"]["synthetic"].update(num_tasks=2, task_covariance=np.eye(2).tolist())
        doc["train"].update(learning_rate=1e-300, prior_weight=1e308)
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "non-finite objective after epoch 0: data loss " in err
        assert "prior term inf" in err
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("prior_weight", [1e-6, 1e-4, 3e-4, 0.1])
    def test_every_prior_weight_trains_without_numeric_failure(
        self, tmp_path, capsys, prior_weight
    ):
        """The prior step cannot run away: 8 tasks in related pairs, 20
        features, a bottleneck of 8 and 40 epochs train to exit 0 at
        every ``prior_weight``.  An explicit per-batch prior step exited
        3 here at 1e-4 and 3e-4: the weights grew until a refit's factor
        was not positive definite."""
        pairs = np.arange(8) // 2
        omega = np.where(pairs[:, None] == pairs[None, :], 0.8, 0.0)
        np.fill_diagonal(omega, 1.0)
        doc = experiment_config(seed=1, epochs=40)
        doc["data"]["synthetic"].update(
            num_tasks=8, feature_dim=20, samples_per_task=50, seed=101,
            task_covariance=omega.tolist(), test_samples_per_task=20,
        )
        doc["model"]["bottleneck_width"] = 8
        doc["train"].update(batch_size=16, prior_weight=prior_weight)
        assert main(["train", "--config", str(write_config(tmp_path, doc))]) == 0
        assert capsys.readouterr().err == ""

    def test_numeric_failure_prints_one_line(self, tmp_path, capsys):
        """Weights that overflow exit 3 with the line naming the failure
        and nothing else on stderr: no numpy warning ahead of it."""
        doc = experiment_config(variant="stl", epochs=1)
        doc["data"]["synthetic"].update(
            num_tasks=4, feature_dim=20, samples_per_task=100,
            task_covariance=np.eye(4).tolist(),
        )
        doc["train"]["learning_rate"] = 1e30
        assert main(["train", "--config", str(write_config(tmp_path, doc))]) == 3
        assert capsys.readouterr().err == (
            "relnet train: numeric failure: non-finite gradient of stack layer "
            "'bottleneck' weights at epoch 0, batch 7\n"
        )

    def test_batch_size_beyond_int64_trains_as_one_batch(self, tmp_path):
        """A batch size of 10**30 trains exactly as one batch of the 36
        training rows."""
        for name, size in (("huge", 10**30), ("whole", 36)):
            doc = experiment_config(epochs=2, output_dir=name)
            doc["train"]["batch_size"] = size
            assert main(["train", "--config", str(write_config(tmp_path, doc))]) == 0
        for name in ("report.csv", "model.json"):
            want = (tmp_path / "whole" / name).read_bytes()
            assert (tmp_path / "huge" / name).read_bytes() == want

    def test_out_flag_overrides_config_dir(self, tmp_path):
        cfg = write_config(tmp_path, experiment_config(epochs=1))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "z")]) == 0
        assert (tmp_path / "z" / "report.csv").exists()
        assert not (tmp_path / "out").exists()


def eval_argv(tmp_path, manifest, model, *flags, **sections):
    """An ``eval`` command on ``model`` whose config, ``eval.json`` in
    ``tmp_path``, names only ``manifest`` and the given ``sections``."""
    doc = {
        "schema_version": 1,
        "variant": "drn",
        "data": {"manifest": str(manifest)},
        **sections,
    }
    cfg = write_config(tmp_path, doc, "eval.json")
    return ["eval", "--config", str(cfg), "--model", str(model), *flags]


class TestEval:
    def make_balanced_manifest(self, tmp_path, dim=5, tasks=("a", "b")):
        rng = np.random.default_rng(3)
        features = [rng.standard_normal((9, dim)) for _ in tasks]
        labels = [np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])] * len(tasks)
        ds = MultiTaskDataset(list(tasks), features, labels, num_classes=3)
        return write_manifest(ds, tmp_path / "data")

    def test_constant_predictor_scores_one_third(self, tmp_path, capsys):
        """All-zero weights predict class 0; balanced data scores 1/3.
        A config without a held-out fold scores its whole dataset under
        either fold."""
        manifest = self.make_balanced_manifest(tmp_path)
        model = tiny_checkpoint(tmp_path)
        third = format_float(1.0 / 3.0)
        want = f"task,accuracy\na,{third}\nb,{third}\naverage,{third}\n"
        for fold in ("test", "train"):
            assert main(eval_argv(tmp_path, manifest, model, "--fold", fold)) == 0
            assert capsys.readouterr().out == want

    def test_eval_reproduces_final_train_accuracy(self, tmp_path, capsys):
        """Scoring either fold of a run, from the run's own config,
        prints the last epoch's accuracy cells of ``report.csv``: for a
        stratified split of a manifest and for a synthetic held-out
        fold."""
        ds, _ = generate_synthetic(
            SyntheticSpec(2, 6, 3, 24, np.eye(2), seed=5, task_names=("t0", "t1"))
        )
        write_manifest(ds, tmp_path / "data")
        split_doc = experiment_config(epochs=3, output_dir="split")
        split_doc["data"] = {"manifest": "data/manifest.json"}
        split_doc["split"] = {"train_fraction": 0.5, "stratified": True, "seed": 3}
        configs = [
            write_config(tmp_path, split_doc, "split.json"),
            write_config(
                tmp_path, experiment_config(epochs=3, output_dir="synth"), "synth.json"
            ),
        ]
        for cfg in configs:
            assert main(["train", "--config", str(cfg)]) == 0
            out = tmp_path / load_json(cfg)["output_dir"]
            capsys.readouterr()
            header, *_, last = (out / "report.csv").read_text().strip().split("\n")
            model = out / "model.json"
            for fold in ("train", "test"):
                prefix = f"{fold}_acc_"
                want = {
                    h[len(prefix):]: cell
                    for h, cell in zip(header.split(","), last.split(","))
                    if h.startswith(prefix)
                }
                argv = ["eval", "--config", str(cfg), "--model", str(model)]
                assert main([*argv, "--fold", fold]) == 0
                lines = capsys.readouterr().out.strip().split("\n")[1:-1]
                assert want and dict(line.split(",") for line in lines) == want

    def test_v1_checkpoint_and_its_v2_resave_score_alike(self, tmp_path, capsys):
        """A version-1 checkpoint, weights as flat lists, loads into the
        parameters its version-2 re-save holds, bit for bit, and
        ``eval`` prints the same bytes for both."""
        assert load_json(V1_MODEL)["schema_version"] == 1
        v2 = tmp_path / "model_v2.json"
        net, names = load_checkpoint(V1_MODEL)
        save_checkpoint(net, v2, task_names=names)
        assert load_json(v2)["schema_version"] == 2
        assert load_checkpoint(v2)[0].params.tobytes() == net.params.tobytes()
        manifest = self.make_balanced_manifest(tmp_path, dim=2)
        printed = []
        for model in (V1_MODEL, v2):
            assert main(eval_argv(tmp_path, manifest, model)) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[0].startswith("task,accuracy\na,")

    def test_stdout_is_utf8_under_the_c_locale(self, tmp_path, capsys):
        """``eval`` prints UTF-8 where the locale's encoding is ASCII: the
        bytes it prints in process, a task named ``tâche`` included, not a
        ``UnicodeEncodeError``."""
        doc = experiment_config(epochs=1)
        doc["data"]["synthetic"]["task_names"] = ["tâche", "b", "c"]
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 0
        model = tmp_path / "out" / "model.json"
        argv = ["eval", "--config", str(cfg), "--model", str(model)]
        capsys.readouterr()
        assert main(argv) == 0
        want = capsys.readouterr().out
        assert want.startswith("task,accuracy\ntâche,")
        proc = run_in_the_c_locale(argv)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        assert proc.stdout == want.encode()

    def test_feature_dim_mismatch_exits_usage(self, tmp_path, capsys):
        manifest = self.make_balanced_manifest(tmp_path, dim=4)
        argv = eval_argv(tmp_path, manifest, tiny_checkpoint(tmp_path))
        assert main(argv) == 1
        assert f"{manifest} feature dim 4 != network input 5" in capsys.readouterr().err

    def test_empty_fold_exits_usage(self, tmp_path, capsys):
        """A split that leaves no test rows cannot be scored."""
        manifest = self.make_balanced_manifest(tmp_path)
        argv = eval_argv(
            tmp_path, manifest, tiny_checkpoint(tmp_path),
            split={"train_fraction": 0.99},
        )
        assert main(argv) == 1
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

    def test_json_export_writes_an_array_object_matrix_as_lists(self, tmp_path, capsys):
        """The JSON form is the checked document: a ``correlation`` read
        from an array object is written as the rows a trained model's
        file holds."""
        argv = with_relationship(array_object(np.eye(2)))(tmp_path)
        assert main([*argv[:-1], "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["correlation"] == [[1, 0], [0, 1]]

    def test_csv_out_is_utf8_under_the_c_locale(self, tmp_path):
        """``--format csv --out`` writes UTF-8 even where the locale's
        encoding is ASCII, so a task name such as ``tâche`` is written,
        not a ``UnicodeEncodeError``."""
        argv = with_relationship(np.eye(2).tolist(), ["tâche", "b"])(tmp_path)
        out = tmp_path / "x.csv"
        proc = run_in_the_c_locale([*argv, "--out", str(out)])
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        assert out.read_bytes() == "task,tâche,b\ntâche,1,0\nb,0,1\n".encode()

    def test_csv_stdout_is_utf8_under_the_c_locale(self, tmp_path):
        """Without ``--out`` the CSV form goes to standard output, also in
        UTF-8 where the locale's encoding is ASCII."""
        argv = with_relationship(np.eye(2).tolist(), ["tâche", "b"])(tmp_path)
        proc = run_in_the_c_locale(argv)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        assert proc.stdout == "task,tâche,b\ntâche,1,0\nb,0,1\n".encode()

    def test_missing_layer_exits_usage(self, tmp_path, capsys):
        out = self.trained_dir(tmp_path)
        code = main(
            ["export-relationship", "--model-dir", str(out), "--layer", "nope"]
        )
        assert code == 1
        missing = out / "relationship_nope.json"
        assert f"{missing}: No such file or directory" in capsys.readouterr().err


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
    """A ``train`` or ``eval`` command whose config names a manifest
    with the given text (``None``: no manifest file)."""

    def setup(tmp_path):
        manifest = tmp_path / "manifest.json"
        if text is not None:
            manifest.write_text(text)
        if command == "train":
            doc = experiment_config(epochs=1)
            doc["data"] = {"manifest": "manifest.json"}
            return ["train", "--config", str(write_config(tmp_path, doc))]
        return eval_argv(tmp_path, "manifest.json", tiny_checkpoint(tmp_path))

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
    stack = TaskLayerStack(["classifier"], [np.zeros((5, 3, 2))], [np.zeros((2, 3))])
    path = tmp_path / "model.json"
    save_checkpoint(MultiTaskNet([], stack), path, task_names=["a", "b"])
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


def with_samples_doc(doc):
    """A ``tnd-fit`` command on the samples document ``doc``."""

    def setup(tmp_path):
        inp = tmp_path / "samples.json"
        inp.write_text(json.dumps(doc))
        return ["tnd-fit", "--input", str(inp), "--out", str(tmp_path / "fit.json")]

    return setup


def with_sample_array(dims, n=20, shape=None, bad=None):
    """A ``tnd-fit`` command on ``n`` samples of ``dims`` written as one
    array object, of ``shape`` when given, with flat entry ``bad`` NaN."""
    samples = np.random.default_rng(0).standard_normal((n, int(np.prod(dims))))
    if bad is not None:
        samples.flat[bad] = np.nan
    if shape is not None:
        samples = samples.reshape(shape)
    return with_samples_doc({"dims": dims, "samples": array_object(samples)})


def with_flags(*flags):
    """A valid ``train`` command with extra ``flags``."""

    def setup(tmp_path):
        cfg = write_config(tmp_path, experiment_config(epochs=1))
        return ["train", "--config", str(cfg), *flags]

    return setup


def with_eval(tasks=("a", "b"), **sections):
    """An ``eval`` command on a tiny checkpoint of tasks ``a`` and ``b``
    and a balanced manifest of ``tasks``, its config holding
    ``sections``."""

    def setup(tmp_path):
        manifest = TestEval().make_balanced_manifest(tmp_path, tasks=tasks)
        return eval_argv(tmp_path, manifest, tiny_checkpoint(tmp_path), **sections)

    return setup


# The value that makes :func:`with_value` delete a key.
DELETE = object()


def with_checkpoint(path, value, doc=None):
    """An ``eval`` command on a valid manifest and a tiny checkpoint, or
    the checkpoint document ``doc``, holding ``value`` at the key path
    ``path`` (:data:`DELETE`: without that key)."""

    def setup(tmp_path):
        argv = with_eval()(tmp_path)
        model = Path(argv[argv.index("--model") + 1])
        model.write_text(json.dumps(with_value(doc or load_json(model), path, value)))
        return argv

    return setup


def with_relationship(correlation, names=("a", "b"), layer="classifier"):
    """CSV export, with ``--layer layer``, of the relationship file of
    ``layer``, which names layer ``classifier`` and holds
    ``correlation`` and the task ``names``."""

    def setup(tmp_path):
        doc = {
            "schema_version": 1,
            "layer": "classifier",
            "task_names": list(names),
            "correlation": correlation,
        }
        (tmp_path / f"relationship_{layer}.json").write_text(json.dumps(doc))
        return [
            "export-relationship", "--model-dir", str(tmp_path),
            "--layer", layer, "--format", "csv",
        ]

    return setup


def with_output(command, out):
    """A valid ``command`` writing to ``out`` under ``tmp_path``, which
    holds a file ``a_file``, a directory ``a_dir`` and no ``missing``
    directory."""

    def setup(tmp_path):
        (tmp_path / "a_file").write_text("")
        (tmp_path / "a_dir").mkdir()
        target = str(tmp_path / out)
        if command == "tnd-fit":
            argv = with_samples([3, 2, 2])(tmp_path)
            argv[argv.index("--out") + 1] = target
            return argv
        if command == "train":
            return with_flags("--out", target)(tmp_path)
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
    "samples_per_task_beyond_intp": (
        with_field("data.synthetic.samples_per_task", 10**30),
        "config.data.synthetic.samples_per_task must be at most",
    ),
    "test_samples_per_task_beyond_intp": (
        with_field("data.synthetic.test_samples_per_task", 10**30),
        "config.data.synthetic.test_samples_per_task must be at most",
    ),
    # Both draws exceed a 47-bit address space, so they fail on any host.
    "samples_per_task_beyond_memory": (
        with_field("data.synthetic.samples_per_task", 10**15),
        "config.data.synthetic: 3 tasks of 1000000000000000 training and 30 "
        "test samples with feature_dim 6 and 3 classes do not fit in memory",
    ),
    "feature_dim_beyond_memory": (
        with_field("data.synthetic.feature_dim", 10**13),
        "config.data.synthetic: 3 tasks of 12 training and 30 test samples "
        "with feature_dim 10000000000000 and 3 classes do not fit in memory",
    ),
    # The weights' 2**71 entries overflow numpy's byte count.
    "weights_beyond_intp": (
        with_field(
            "data.synthetic",
            {"num_tasks": 2, "feature_dim": 2**40, "num_classes": 2**30,
             "samples_per_task": 1, "task_covariance": np.eye(2).tolist()},
        ),
        "config.data.synthetic.num_classes must be at most 524287 with "
        "feature_dim 1099511627776 and 2 tasks, got 1073741824",
    ),
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
        "manifest.json: num_classes must be an integer, got 'three'",
    ),
    "train_manifest_num_classes_float": (
        with_manifest(
            "train", '{"schema_version": 1, "num_classes": 2.7, "tasks": []}'
        ),
        "manifest.json: num_classes must be an integer",
    ),
    "train_manifest_num_classes_bool": (
        with_manifest(
            "train", '{"schema_version": 1, "num_classes": true, "tasks": []}'
        ),
        "manifest.json: num_classes must be an integer",
    ),
    "train_manifest_num_classes_string": (
        with_manifest(
            "train", '{"schema_version": 1, "num_classes": "3", "tasks": []}'
        ),
        "manifest.json: num_classes must be an integer",
    ),
    "train_manifest_feature_dim_float": (
        with_manifest(
            "train",
            '{"schema_version": 1, "num_classes": 3, "feature_dim": 2.9, "tasks": []}',
        ),
        "manifest.json: feature_dim must be an integer, got 2.9",
    ),
    "train_manifest_schema_version_bool": (
        with_manifest(
            "train", '{"schema_version": true, "num_classes": 2, "tasks": []}'
        ),
        "manifest.json: schema_version must be 1, got True",
    ),
    "train_manifest_tasks_object": (
        with_manifest(
            "train",
            '{"schema_version": 1, "num_classes": 2, "tasks": {"a": "a.csv"}}',
        ),
        "manifest.json: tasks must be a list, got {'a': 'a.csv'}",
    ),
    "train_manifest_task_path_int": (
        with_manifest(
            "train",
            '{"schema_version": 1, "num_classes": 2, '
            '"tasks": [{"name": "a", "path": 5}]}',
        ),
        "manifest.json: tasks[0].path must be a string, got 5",
    ),
    "train_manifest_unknown_key": (
        with_manifest(
            "train",
            '{"schema_version": 1, "num_classes": 2, "tasks": [], "classes": 2}',
        ),
        "manifest.json: unknown keys ['classes']",
    ),
    "config_schema_version_float": (
        with_field("schema_version", 1.0),
        "config.schema_version must be 1, got 1.0",
    ),
    "config_schema_version_bool": (
        with_field("schema_version", True),
        "config.schema_version must be 1, got True",
    ),
    "synthetic_task_name_with_comma": (
        with_field("data.synthetic.task_names", ["a,b", "c", "d"]),
        "config.data.synthetic.task_names: bad task name 'a,b'",
    ),
    "synthetic_duplicate_task_names": (
        with_field("data.synthetic.task_names", ["a", "a", "b"]),
        "config.data.synthetic.task_names: task names must be unique",
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
        "manifest.json: num_classes must be an integer, got 'three'",
    ),
    "tnd_dims_bool": (with_samples([True, 3, 4]), "dims[0]"),
    "tnd_max_iter_zero": (with_samples([3, 2, 2], flags=("--max-iter", "0")), "--max-iter"),
    "tnd_tol_negative": (with_samples([3, 2, 2], flags=("--tol", "-1")), "--tol"),
    "tnd_tol_nan": (with_samples([3, 2, 2], flags=("--tol", "nan")), "--tol"),
    "tnd_non_finite_entry": (with_samples([3, 2, 2], bad=(1, 5)), "samples[1] entry 5"),
    "tnd_string_entry": (
        with_samples([3, 2, 2], bad=(1, 5), value="2"),
        "samples[1] entry 5 must be a finite number",
    ),
    "tnd_bool_entry": (
        with_samples([3, 2, 2], bad=(1, 5), value=True),
        "samples[1] entry 5 must be a finite number",
    ),
    "eval_checkpoint_num_tasks_float": (
        with_checkpoint(("num_tasks",), 2.7),
        "model.json: num_tasks must be a positive integer, got 2.7",
    ),
    "eval_checkpoint_layer_num_tasks": (
        with_checkpoint(("stack", "layers", 0, "num_tasks"), 99),
        "model.json: stack.layers[0].num_tasks must be 2, got 99",
    ),
    "eval_checkpoint_input_dim": (
        with_checkpoint(("input_dim",), 6),
        "model.json: input_dim is 6, but the layers give 5",
    ),
    "eval_checkpoint_num_classes": (
        with_checkpoint(("num_classes",), 4),
        "model.json: num_classes is 4, but the layers give 3",
    ),
    "eval_checkpoint_final_activation": (
        with_checkpoint(("stack", "layers", 0, "activation"), "relu"),
        "model.json: stack.layers[0].activation must be \"softmax\", got 'relu'",
    ),
    "eval_checkpoint_no_activation": (
        with_checkpoint(("trunk", 0, "activation"), DELETE, load_json(V1_MODEL)),
        "model.json: trunk[0]: missing keys ['activation']",
    ),
    "eval_checkpoint_trunk_num_tasks": (
        with_checkpoint(("trunk", 0, "num_tasks"), 2, load_json(V1_MODEL)),
        "model.json: trunk[0]: unknown keys ['num_tasks']",
    ),
    "eval_checkpoint_unknown_key": (
        with_checkpoint(("epochs",), 3),
        "model.json: unknown keys ['epochs']",
    ),
    "eval_checkpoint_trunk_object": (
        with_checkpoint(("trunk",), {}),
        "model.json: trunk must be a list, got {}",
    ),
    "eval_checkpoint_nan_weight": (
        with_checkpoint(
            ("stack", "layers", 0, "weight"),
            array_object(np.where(np.arange(30) == 4, np.nan, 0.0).reshape(5, 3, 2)),
        ),
        "model.json: stack.layers[0].weight entry 4 must be "
        "a finite number, got nan",
    ),
    "eval_checkpoint_weight_extra_key": (
        with_checkpoint(("stack", "layers", 0, "weight", 4), float("nan")),
        "model.json: stack.layers[0].weight: unknown keys ['4']",
    ),
    "eval_checkpoint_list_nan_weight": (
        with_checkpoint(
            ("stack", "layers", 0, "weight"), [0.0] * 4 + [float("nan")] + [0.0] * 25
        ),
        "model.json: stack.layers[0].weight entry 4 must be "
        "a finite number, got nan",
    ),
    "eval_checkpoint_weight_shape": (
        with_checkpoint(("stack", "layers", 0, "weight", "shape"), [3, 5, 2]),
        "model.json: stack.layers[0].weight has shape "
        "[3, 5, 2], but the layer's dims give [5, 3, 2]",
    ),
    "eval_checkpoint_bias_length": (
        with_checkpoint(("stack", "layers", 0, "bias"), [0.0] * 5),
        "model.json: stack.layers[0].bias has shape [5], "
        "but the layer's dims give [6]",
    ),
    "eval_checkpoint_truncated_base64": (
        with_checkpoint(("stack", "layers", 0, "bias", "base64"), "AAAA"),
        "model.json: stack.layers[0].bias.base64 holds 3 "
        "bytes, but shape [2, 3] needs 48",
    ),
    "tnd_array_non_finite_entry": (
        with_sample_array([3, 2, 2], bad=17),
        "samples.json: samples entry 17 must be a finite number, got nan",
    ),
    "tnd_array_flat": (
        with_sample_array([3, 2, 2], shape=(240,)),
        "samples.json: samples must have 2 dims, got shape [240]",
    ),
    "tnd_array_width": (
        with_sample_array([3, 2, 2], shape=(24, 10)),
        "samples.json: samples must have shape [n, 12], got [24, 10]",
    ),
    "tnd_array_empty": (
        with_sample_array([3, 2, 2], n=0),
        "samples.json: samples must be a non-empty list",
    ),
    "tnd_array_too_few_samples": (
        with_sample_array([16, 2, 2], n=2),
        "samples.json: 2 samples are too few for dims [16, 2, 2]: mode 1 needs",
    ),
    "tnd_too_few_samples": (with_samples([16, 2, 2], n=2), "mode 1 needs"),
    "train_seed_flag_negative": (with_flags("--seed", "-1"), "--seed"),
    "eval_split_seed_negative": (
        with_eval(split={"train_fraction": 0.5, "seed": -1}),
        "config.split.seed must be non-negative, got -1",
    ),
    "eval_task_names_differ": (
        with_eval(tasks=("b", "a")),
        "model.json: task_names ['a', 'b'] differ from the data's ['b', 'a']",
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
    "relationship_row_array_object": (
        with_relationship([array_object([1.0, 0.5]), [0.5, 1.0]]),
        "relationship_classifier.json: correlation[0] must be a list, got {",
    ),
    "tnd_sample_array_object": (
        with_samples_doc(
            {"dims": [3, 2, 2], "samples": [[0.0] * 12, array_object(np.ones(12))]}
        ),
        "samples.json: samples[1] must be a list, got {",
    ),
    "relationship_name_with_comma": (
        with_relationship(np.eye(2).tolist(), ["a,b", "c"]),
        "relationship_classifier.json: task_names: bad task name 'a,b'",
    ),
    "relationship_duplicate_names": (
        with_relationship(np.eye(2).tolist(), ["a", "a"]),
        "relationship_classifier.json: task_names: task names must be unique",
    ),
    "relationship_of_another_layer": (
        with_relationship(np.eye(2).tolist(), layer="bottleneck"),
        "relationship_bottleneck.json: layer must be \"bottleneck\", got 'classifier'",
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


@pytest.mark.parametrize("command", ["train", "tnd-fit"])
def test_out_of_memory_exits_usage_in_one_line(command, tmp_path, capsys, monkeypatch):
    """A failed allocation anywhere in a command exits 1 with numpy's
    message on one line.  The allocation is simulated: whether a huge
    request fails at once depends on the host."""
    message = "Unable to allocate 298. GiB for an array with shape (200000, 200000)"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("relnet.cli.run_experiment", no_memory)
    monkeypatch.setattr("relnet.cli.flip_flop_mle", no_memory)
    setup = with_flags() if command == "train" else with_samples([3, 2, 2])
    argv = setup(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"relnet {command}: out of memory: {message}\n"


def with_feature_dim(feature_dim):
    """A ``train`` command on a manifest that gives ``feature_dim`` for
    its one task, whose CSV holds 3 features per row."""
    task = {"name": "a", "path": "a.csv"}
    manifest = json.dumps(
        {"schema_version": 1, "num_classes": 2, "feature_dim": feature_dim,
         "tasks": [task]}
    )

    def setup(tmp_path):
        (tmp_path / "a.csv").write_text("0.5,0.25,1,1\n0.1,0.2,0.3,0\n")
        return with_manifest("train", manifest)(tmp_path)

    return setup


def with_stack_ids(ids, layer_ids):
    """An ``eval`` command on a checkpoint of two stack layers whose
    ``id`` entries are ``ids`` and whose ``stack.layer_ids`` is
    ``layer_ids``."""

    def setup(tmp_path):
        argv = with_eval()(tmp_path)
        model = Path(argv[argv.index("--model") + 1])
        net = init_network(5, [], [4, 3], 2, np.random.default_rng(0))
        save_checkpoint(net, model, task_names=["a", "b"])
        doc = load_json(model)
        for entry, lid in zip(doc["stack"]["layers"], ids):
            entry["id"] = lid
        doc["stack"]["layer_ids"] = layer_ids
        model.write_text(json.dumps(doc))
        return argv

    return setup


def with_text(name, text):
    """A ``train`` command on a config, or a ``tnd-fit`` command on a
    samples file, whose file ``name`` holds ``text``."""

    def setup(tmp_path):
        path = tmp_path / name
        path.write_text(text)
        if name == "samples.json":
            return ["tnd-fit", "--input", str(path), "--out", str(tmp_path / "o.json")]
        return ["train", "--config", str(path)]

    return setup


# JSON nested deeper than the decoder's stack allows.
DEEP = "[" * 100_000 + "]" * 100_000

# Rejections shown with their whole message; ``{tmp}`` is the test's
# working directory.
REJECTED_IN_FULL = {
    "config_nested_too_deeply": (
        with_text("config.json", '{"schema_version": 1, "variant": ' + DEEP + "}"),
        "{tmp}/config.json: invalid JSON: nested too deeply",
    ),
    "manifest_nested_too_deeply": (
        with_manifest("train", '{"schema_version": 1, "tasks": ' + DEEP + "}"),
        "{tmp}/manifest.json: invalid JSON: nested too deeply",
    ),
    "samples_nested_too_deeply": (
        with_text("samples.json", '{"dims": [1, 1, 1], "samples": ' + DEEP + "}"),
        "{tmp}/samples.json: invalid JSON: nested too deeply",
    ),
    "split_of_synthetic_data": (
        with_field("split", {"train_fraction": 0.5}),
        "config.split: splits apply to manifest data only; synthetic data "
        "uses test_samples_per_task",
    ),
    "trunk_width_zero": (
        with_field("model.trunk_widths", [0]),
        "config.model.trunk_widths must be positive, got [0]",
    ),
    "bottleneck_width_zero": (
        with_field("model.bottleneck_width", 0),
        "config.model.bottleneck_width must be at least 1, got 0",
    ),
    "batch_size_zero": (
        with_field("train.batch_size", 0),
        "config.train.batch_size must be at least 1",
    ),
    "epochs_negative": (
        with_field("train.epochs", -1),
        "config.train.epochs must be non-negative",
    ),
    "prior_weight_negative": (
        with_field("train.prior_weight", -1),
        "config.train.prior_weight must be non-negative",
    ),
    "new_layer_lr_multiplier_zero": (
        with_field("train.new_layer_lr_multiplier", 0),
        "config.train.new_layer_lr_multiplier must be positive",
    ),
    "lr_gamma_negative": (
        with_field("train.lr_gamma", -1),
        "config.train.lr_gamma must be non-negative",
    ),
    "lr_power_negative": (
        with_field("train.lr_power", -0.5),
        "config.train.lr_power must be non-negative",
    ),
    "manifest_feature_dim": (
        with_feature_dim(4),
        "{tmp}/manifest.json: manifest feature_dim 4 != data 3",
    ),
    "checkpoint_layer_ids_differ": (
        with_stack_ids(["bottleneck", "classifier"], ["classifier", "bottleneck"]),
        "{tmp}/model.json: stack.layer_ids must be the layers' ids "
        "['bottleneck', 'classifier']",
    ),
    "checkpoint_layer_ids_repeat": (
        with_stack_ids(["classifier", "classifier"], ["classifier", "classifier"]),
        "{tmp}/model.json: stack layer ids must be unique",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED_IN_FULL))
def test_rejection_exits_usage_with_its_message(case, tmp_path, capsys):
    """Each config or checkpoint the CLI must refuse exits 1 with one
    line: the command and the whole message."""
    setup, message = REJECTED_IN_FULL[case]
    argv = setup(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    want = f"relnet {argv[0]}: {message.format(tmp=tmp_path)}\n"
    assert capsys.readouterr().err == want


def traced_peak(read, path):
    """``(read(path), peak traced allocation in bytes while it ran)``."""
    tracemalloc.start()
    try:
        got = read(path)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_samples_holds_their_text_and_one_array(tmp_path):
    """Reading a samples file of at least 4 MB peaks at no more than twice
    its size plus 1 MB of traced allocations: the file's bytes and its
    text, not one Python float per number.  The same samples as an array
    object peak below four times that file's size: its base64 text, its
    bytes and their re-encoding, once the file's text is let go."""
    samples = np.random.default_rng(3).standard_normal((440, 512))
    lists, binary = tmp_path / "lists.json", tmp_path / "binary.json"
    lists.write_text(json.dumps({"dims": [8, 8, 8], "samples": samples.tolist()}))
    binary.write_text(json.dumps({"dims": [8, 8, 8], "samples": array_object(samples)}))
    size = lists.stat().st_size
    assert size >= 4 * 2**20
    got, peak = traced_peak(_load_tnd_samples, lists)
    assert got.tobytes() == samples.tobytes()
    assert peak <= 2 * size + 2**20, f"peak {peak} B for a file of {size} B"
    got, peak = traced_peak(_load_tnd_samples, binary)
    assert got.tobytes() == samples.tobytes()
    assert peak <= 4 * binary.stat().st_size, f"peak {peak} B"


def test_reading_samples_holds_a_window_and_one_array(tmp_path):
    """Reading the list form of a samples file of at least 4 MB peaks at
    no more than twice its array's bytes plus 1 MB of traced
    allocations: the array as it grows and a window of the text, never
    the whole text.  The same samples as an array object peak at no
    more than three times that file's size: its base64 text, its bytes
    and the array."""
    samples = np.random.default_rng(3).standard_normal((440, 512))
    lists, binary = tmp_path / "lists.json", tmp_path / "binary.json"
    lists.write_text(json.dumps({"dims": [8, 8, 8], "samples": samples.tolist()}))
    binary.write_text(json.dumps({"dims": [8, 8, 8], "samples": array_object(samples)}))
    assert lists.stat().st_size >= 4 * 2**20
    got, peak = traced_peak(_load_tnd_samples, lists)
    assert got.tobytes() == samples.tobytes()
    assert peak <= 2 * samples.nbytes + 2**20, f"peak {peak} B"
    got, peak = traced_peak(_load_tnd_samples, binary)
    assert got.tobytes() == samples.tobytes()
    assert peak <= 3 * binary.stat().st_size, f"peak {peak} B"


def test_reading_an_array_object_holds_its_text_and_the_array(tmp_path):
    """The array-object form of a samples file peaks at no more than
    twice the file's size plus 1 MiB of traced allocations: the reader's
    window, the base64 text and the array, into which the text is
    decoded a block at a time."""
    samples = np.random.default_rng(3).standard_normal((440, 512))
    binary = tmp_path / "binary.json"
    binary.write_text(json.dumps({"dims": [8, 8, 8], "samples": array_object(samples)}))
    got, peak = traced_peak(_load_tnd_samples, binary)
    assert got.tobytes() == samples.tobytes()
    assert peak <= 2 * binary.stat().st_size + 2**20, f"peak {peak} B"


def test_fit_holds_the_samples_and_one_working_tensor():
    """``mle_mean`` and ``flip_flop_mle`` on at least 4 MB of samples peak
    at no more than twice the samples' bytes plus 1 MiB of traced
    allocations, the samples made inside the trace: the samples, the
    fit's one working tensor and a block of scratch.  A small fit first
    makes the lazy imports of numpy's submodules outside the trace."""

    def fit(shape):
        samples = np.random.default_rng(5).standard_normal(shape)
        return samples, flip_flop_mle(samples, mle_mean(samples))

    fit((4, 2, 2, 2))
    (samples, result), peak = traced_peak(fit, (60, 32, 24, 16))
    assert samples.nbytes >= 4 * 2**20
    assert result.converged
    assert peak <= 2 * samples.nbytes + 2**20, f"peak {peak} B"


def test_tnd_fit_checks_its_output_before_the_fit(tmp_path, capsys, monkeypatch):
    """An output under a file, or one that is a directory, is rejected
    without reading the samples or running the fit."""

    def no_call(*args, **kwargs):
        raise AssertionError("the samples were read or the fit ran")

    monkeypatch.setattr("relnet.cli._load_tnd_samples", no_call)
    monkeypatch.setattr("relnet.cli.flip_flop_mle", no_call)
    cases = [("a_file/fit.json", "Not a directory"), ("a_dir", "Is a directory")]
    for out, message in cases:
        work = tmp_path / message.replace(" ", "_")
        work.mkdir()
        argv = with_output("tnd-fit", out)(work)
        assert main(argv) == 1
        assert f"{out}: {message}" in capsys.readouterr().err


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
    """A copy of ``doc`` holding ``value`` at ``path``, or without the
    key at ``path`` when ``value`` is :data:`DELETE`."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
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


SAMPLE_DOCS = {
    "lists": {"dims": [3, 2, 2], "samples": np.eye(12)[:8].tolist()},
    "array": {"dims": [3, 2, 2], "samples": array_object(np.eye(12)[:8])},
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(
        [("lists", p) for p in [("dims",), ("dims", 0), ("dims", 2), ("samples",)]]
        + [("lists", p) for p in [("samples", 0), ("samples", 7), ("samples", 0, 0)]]
        + [("lists", ("samples", 5, 11)), ("array", ("dims", 1))]
        + [("array", ("samples", key)) for key in ("dtype", "shape", "base64")]
        + [("array", ("samples", "shape", 0)), ("array", ("samples", "shape", 1))]
    ),
    JSON_VALUES,
)
@example(("lists", ("samples", 0, 0)), 10**400)
@example(("lists", ("samples", 0, 0)), "2")
@example(("lists", ("samples", 0, 0)), True)
@example(("array", ("samples", "shape")), [96])
@example(("array", ("samples", "shape")), [4, 24])
@example(("array", ("samples", "shape")), [0, 12])
@example(("array", ("samples", "base64")), "")
@example(("lists", ("samples", 7)), array_object(np.zeros(12)))
def test_any_json_value_in_dims_or_a_sample_is_loaded_or_a_config_error(
    where, value
):
    """A document loads only if every sample entry is a JSON number, or
    if its samples are one array object of shape ``(n, d1 * d2 * d3)``."""
    form, where = where
    doc = with_value(SAMPLE_DOCS[form], where, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.json"
        path.write_text(json.dumps(doc))
        try:
            samples = _load_tnd_samples(path)
        except ConfigError as exc:
            assert str(path) in str(exc)
            return
    if form == "array":
        assert samples.shape == (doc["samples"]["shape"][0], *doc["dims"])
        return
    assert [s.shape for s in samples] == [tuple(doc["dims"])] * len(doc["samples"])
    assert all(type(v) in (int, float) for s in doc["samples"] for v in s)


def resaved_doc(path):
    """The document of the checkpoint at ``path`` loaded and saved again,
    so as version 2."""
    net, names = load_checkpoint(path)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "model.json"
        save_checkpoint(net, out, task_names=names)
        return load_json(out)


# A checkpoint with one trunk layer and two stack layers, as JSON: the
# version-1 file, weights as flat lists, and its version-2 re-save.
CHECKPOINTS = {"v1": load_json(V1_MODEL), "v2": resaved_doc(V1_MODEL)}
NAN_BIAS = array_object([[0.5, np.nan, 1.0], [1.0, 2.0, 3.0]])


def valid_task_names(names):
    """Non-empty, unique, non-empty strings without commas."""
    return (
        bool(names)
        and all(isinstance(n, str) and n and "," not in n for n in names)
        and len(set(names)) == len(names)
    )


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(
        [(v, p) for v, doc in CHECKPOINTS.items() for p in json_paths(doc)]
    ),
    JSON_VALUES,
)
@example(("v1", ("num_tasks",)), 2.7)
@example(("v1", ("trunk", 0, "weight", 1)), float("nan"))
@example(("v1", ("stack", "layers", 1, "bias", 0)), "2")
@example(("v2", ("task_names",)), ["a"])
@example(("v2", ("trunk", 0, "in_dim")), -1)
@example(("v1", ("input_dim",)), 3)
@example(("v2", ("num_classes",)), 1)
@example(("v2", ("stack", "layers", 0, "activation")), "softmax")
@example(("v1", ("stack", "layers", 1, "activation")), "relu")
@example(("v2", ("trunk",)), {})
@example(("v2", ("stack",)), [])
@example(("v1", ("stack", "layers")), {"0": {}})
@example(("v2", ("stack", "layer_ids")), "bottleneck")
@example(("v1", ("trunk", 0)), [])
@example(("v2", ("schema_version",)), 1)
@example(("v1", ("trunk", 0, "bias")), array_object([0.5, 1.5]))
@example(("v2", ("trunk", 0, "bias")), [0.5, 1.5])
@example(("v2", ("trunk", 0, "weight", "dtype")), "<f4")
@example(("v2", ("trunk", 0, "weight", "shape")), [4])
@example(("v2", ("trunk", 0, "weight", "shape", 1)), -2)
@example(("v2", ("stack", "layers", 1, "weight", "shape", 0)), 1)
@example(("v2", ("stack", "layers", 1, "bias", "base64")), "AAAA")
@example(("v2", ("stack", "layers", 1, "bias")), NAN_BIAS)
@example(("v2", ("stack", "layers", 1, "bias", "base64")), NAN_BIAS["base64"] + "=")
def test_any_json_value_in_any_checkpoint_field_loads_or_names_the_file(
    where, value
):
    """A checkpoint, version 1 or 2, loads into a finite net with the
    counts, dims, task names and position-given activations it states,
    from layer lists that are JSON lists, or raises an ``InputError``
    naming the file."""
    version, where = where
    doc = with_value(CHECKPOINTS[version], where, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        try:
            net, names = load_checkpoint(path)
        except InputError as exc:
            assert str(path) in str(exc)
            return
    lists = (doc["trunk"], doc["stack"]["layers"], doc["stack"]["layer_ids"])
    assert all(type(v) is list for v in lists)
    assert np.isfinite(net.params).all()
    counts = (net.input_dim, net.num_classes, net.num_tasks)
    assert counts == (doc["input_dim"], doc["num_classes"], doc["num_tasks"])
    assert names is None or (len(names) == net.num_tasks and valid_task_names(names))
    for layer, entry in zip(net.trunk, doc["trunk"]):
        assert layer.weight.shape == (entry["in_dim"], entry["out_dim"])
    for w, entry in zip(net.stack.weights, doc["stack"]["layers"]):
        assert w.shape == (entry["in_dim"], entry["out_dim"], net.num_tasks)
    acts = [entry["activation"] for entry in [*doc["trunk"], *doc["stack"]["layers"]]]
    assert acts == ["relu"] * (len(acts) - 1) + ["softmax"]


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
# every document under one keys-and-types rule

# A valid document of each kind, as the command that reads it sees it.
DOCUMENTS = {
    "config": experiment_config(epochs=1),
    "manifest config": manifest_config(),
    "manifest": MANIFEST,
    "checkpoint v1": CHECKPOINTS["v1"],
    "checkpoint v2": CHECKPOINTS["v2"],
    "samples": SAMPLE_DOCS["lists"],
    "sample array": SAMPLE_DOCS["array"],
    "relationship": RELATIONSHIP,
}
# One or two values of each JSON type.
JSON_TYPE_VALUES = [None, True, 0, 2.5, "x", [], [1], {}, {"k": 1}]


def json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def is_optional(kind, path):
    """Whether the key at ``path`` of a ``kind`` document may be left out."""
    if kind.endswith("config"):
        if path[0] == "split":
            return path != ("split", "train_fraction")
        optional = ("noise_scale", "seed", "test_samples_per_task")
        return path[0] in ("model", "train", "output_dir") or path[-1] in optional
    # The manifest's feature_dim and the checkpoint's task_names.
    if kind == "manifest":
        return path == ("feature_dim",)
    return kind.startswith("checkpoint") and path == ("task_names",)


def key_path(top, path):
    """``path`` spelled as the messages spell it under ``top``, which is
    ``config`` or ``<file>:``."""
    text = top
    for key in path:
        if type(key) is int:
            text += f"[{key}]"
        else:
            text += f" {key}" if text.endswith(":") else f".{key}"
    return text.removesuffix(":")


def read_as(kind, doc, tmp):
    """Run the command that reads ``doc`` as a ``kind`` document in the
    directory ``tmp``, stopped once the document has been read: its exit
    code (None when it read the document), its stderr, and the name
    under which its messages spell the document's keys."""
    if kind.endswith("config"):
        path, stop = write_config(tmp, doc), "relnet.cli.load_experiment_data"
        argv = ["train", "--config", str(path), "--out", str(tmp / "out")]
        top = "config"
    elif kind == "manifest":
        for name in ("a", "b"):
            (tmp / f"{name}.csv").write_text("0.5,1.5,0\n2.5,3.5,1\n")
        path = tmp / "manifest.json"
        config = experiment_config(epochs=0)
        config["data"] = {"manifest": path.name}
        argv = ["train", "--config", str(write_config(tmp, config))]
        stop = "relnet.cli.build_network"
    elif kind.startswith("checkpoint"):
        path, stop = tmp / "model.json", "relnet.cli.load_experiment_data"
        argv = eval_argv(tmp, "manifest.json", path)
    elif kind == "relationship":
        path, stop = tmp / "relationship_classifier.json", "relnet.cli.write_csv_rows"
        argv = [
            "export-relationship", "--model-dir", str(tmp), "--layer", "classifier",
            "--format", "csv", "--out", str(tmp / "x.csv"),
        ]
    else:
        path, stop = tmp / "samples.json", "relnet.cli.mle_mean"
        argv = ["tnd-fit", "--input", str(path), "--out", str(tmp / "fit.json")]
    if not kind.endswith("config"):
        path.write_text(json.dumps(doc))
        top = f"{path}:"
    err = io.StringIO()
    with mock.patch(stop, side_effect=Loaded), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Loaded:
            code = None
    return code, err.getvalue(), top


CHANGES = [
    (kind, path, value)
    for kind, doc in DOCUMENTS.items()
    for path in json_paths(doc)
    for value in [DELETE] * (type(path[-1]) is str) + JSON_TYPE_VALUES
    if value is DELETE or json_type(value) != json_type(value_at(doc, path))
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CHANGES))
@example(("manifest", ("tasks", 0, "path"), 5))
@example(("manifest", ("tasks",), {"k": 1}))
@example(("checkpoint v2", ("trunk", 0, "activation"), DELETE))
@example(("checkpoint v1", ("task_names",), None))
@example(("config", ("schema_version",), True))
@example(("sample array", ("samples", "shape"), DELETE))
@example(("relationship", ("correlation", 1), 2.5))
@example(("relationship", ("layer",), DELETE))
def test_a_value_of_another_type_or_a_missing_key_names_the_key_path(change):
    """Each document the program reads (config, manifest, checkpoint,
    ``tnd-fit`` samples, relationship file) is rejected with exit 1 and
    a message naming the file, or ``config``, and the key path, when one
    of its values is replaced by a value of another JSON type or a
    required key is deleted; a checkpoint's null ``task_names`` and a
    left-out optional key are read.  No message is a Python-internal one."""
    kind, path, value = change
    doc = DOCUMENTS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        code, err, top = read_as(kind, with_value(doc, path, value), Path(tmp))
    if value is DELETE:
        accepted = is_optional(kind, path)
        named = [key_path(top, path[:-1]), repr(path[-1])]
    else:
        # Only the checkpoint's task_names may be null.
        accepted = value is None and path == ("task_names",) and "checkpoint" in kind
        # A list of numbers names its items ``<list> entry J``.
        whole = type(path[-1]) is int and json_type(value_at(doc, path)) == "number"
        named = [key_path(top, path[:-1] if whole else path)]
    if accepted:
        assert code is None, err
        return
    assert code == 1, err
    for name in named:
        assert name in err
    for internal in ("string indices", "unsupported operand", "Traceback"):
        assert internal not in err
    assert not re.search(r": '[^']*'$", err.strip()), err


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


def test_readme_synopses_are_the_parsed_flags():
    """The first ``sh`` block of each ``### relnet <command>`` section of
    README.md names exactly the options of that subcommand, ``--help``
    aside."""
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    sections = re.findall(
        r"^### `relnet ([a-z-]+)`\n(.*?)(?=^##)", README.read_text(), re.S | re.M
    )
    assert sorted(name for name, _ in sections) == sorted(commands)
    for name, body in sections:
        synopsis = re.search(r"```sh\n(.*?)```", body, re.S).group(1)
        flags = {
            option
            for action in commands[name]._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == flags - {"--help"}, name
