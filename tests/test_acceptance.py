"""Acceptance gate: ten end-to-end properties, one test each.

Run with ``pytest -v`` to get one pass/fail line per criterion.  Each
test states its tolerance and, where relevant, its runtime budget.
The multi-task-gain experiment (criteria 07/08) runs once in a
module-scoped fixture and is shared by both tests.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from oracles import (
    backward,
    kronecker,
    matricize,
    prior_gradient_full,
    task_log_loss,
    vectorize,
)
from relnet.cli import main, parse_experiment_config, run_experiment
from relnet.data import SyntheticSpec, generate_synthetic
from relnet.network import (
    MultiTaskNet,
    TaskLayerStack,
    forward,
    init_network,
    prior_penalty,
)
from relnet.serialize import load_json
from relnet.tensor import mode_product
from relnet.tensor_normal import (
    KronCovariance,
    TensorNormal,
    flip_flop_mle,
    log_pdf,
    mle_mean,
    sample,
)
from relnet.trainer import (
    CovarianceState,
    OpCounter,
    OptimizerState,
    TrainConfig,
    sgd_epoch,
    update_covariances,
)


def spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


def unit_trace_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = spd(rng, dim)
    return m / np.trace(m)


def dense_cov(cov: KronCovariance) -> np.ndarray:
    full = np.eye(1)
    for f in cov.factors:
        full = np.kron(full, f.matrix)
    return full


def test_01_log_density_matches_dense_gaussian_oracle():
    """50 seeded cases, dims up to (4,3,2): rel. tol 1e-10, under 5 s."""
    start = time.perf_counter()
    dims_cycle = [
        (4, 3, 2), (2, 3, 2), (3, 1, 2), (4, 2, 1), (1, 3, 2),
        (2, 2, 2), (4, 3, 1), (3, 3, 2), (4, 1, 1), (2, 1, 2),
    ]
    for case in range(50):
        rng = np.random.default_rng([11, case])
        dims = dims_cycle[case % len(dims_cycle)]
        dist = TensorNormal(
            mean=rng.standard_normal(dims),
            cov=KronCovariance([spd(rng, d) for d in dims]),
        )
        x = rng.standard_normal(dims)
        got = log_pdf(dist, x)
        want = scipy.stats.multivariate_normal(
            mean=dist.mean.ravel(), cov=dense_cov(dist.cov)
        ).logpdf(x.ravel())
        assert got == pytest.approx(want, rel=1e-10)
    assert time.perf_counter() - start < 5.0


def test_02_mode_product_equals_kronecker_vector_identity():
    """100 seeded instances: rel. tol 1e-12."""
    for case in range(100):
        rng = np.random.default_rng([22, case])
        dims = tuple(int(d) for d in rng.integers(1, 5, size=3))
        outs = tuple(int(d) for d in rng.integers(1, 5, size=3))
        t = rng.standard_normal(dims)
        mats = [rng.standard_normal((o, d)) for o, d in zip(outs, dims)]
        prod = t
        for mode, m in enumerate(mats, start=1):
            prod = mode_product(prod, m, mode)
        lhs = vectorize(prod)
        rhs = kronecker(mats[0], kronecker(mats[1], mats[2])) @ vectorize(t)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(
            np.linalg.norm(rhs), 1.0
        )


def test_03_flip_flop_log_likelihood_monotone_and_convergent():
    """n=200 on (4,3,2): non-decreasing sweeps (slack 1e-9), converges
    at tol 1e-8 within 100 sweeps."""
    rng = np.random.default_rng(33)
    dims = (4, 3, 2)
    dist = TensorNormal(
        mean=rng.standard_normal(dims),
        cov=KronCovariance([spd(rng, d) for d in dims]),
    )
    draws = sample(dist, rng, size=200)
    result = flip_flop_mle(draws, mle_mean(draws), tol=1e-8, max_iter=100)
    assert result.converged
    assert result.iterations <= 100
    history = np.asarray(result.history)
    assert np.all(np.diff(history) >= -1e-9)


def test_04_covariance_recovery_error_shrinks_with_sample_size():
    """3 seed families, n in {50, 500, 5000}: error non-increasing and
    the largest-n error at most half the smallest-n error."""
    for family in range(3):
        rng = np.random.default_rng([101, family])
        dims = (4, 3, 2)
        truth = KronCovariance([spd(rng, d) for d in dims])
        dist = TensorNormal(mean=np.zeros(dims), cov=truth)
        draws = sample(dist, rng, size=5000)
        want = dense_cov(truth)
        errs = []
        for n in (50, 500, 5000):
            subset = [draws[i] for i in range(n)]
            res = flip_flop_mle(subset, mle_mean(subset))
            errs.append(
                np.linalg.norm(dense_cov(res.cov) - want) / np.linalg.norm(want)
            )
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] <= errs[0] / 2.0


def test_05_analytic_gradients_match_finite_differences():
    """Data loss + 0.5x prior on a 7->5->4->3 net with 2 tasks: central
    differences (h=1e-5), rel. error < 1e-6, under 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    net = init_network(7, [5], [4, 3], 2, rng)
    priors = [
        KronCovariance([spd(rng, d) for d in w.shape])
        for w in net.stack.weights
    ]
    lam = 0.5
    xs = [rng.standard_normal((3, 7)) for _ in range(2)]
    ys = [rng.integers(0, 3, size=3) for _ in range(2)]

    def loss() -> float:
        total = sum(task_log_loss(net, t, xs[t], ys[t]) for t in range(2))
        return total + lam * prior_penalty(net.stack, priors)

    analytic = {}
    for l, layer in enumerate(net.trunk):
        analytic[f"trunk_w{l}"] = np.zeros_like(layer.weight)
        analytic[f"trunk_b{l}"] = np.zeros_like(layer.bias)
    for l, w in enumerate(net.stack.weights):
        analytic[f"stack_w{l}"] = lam * prior_gradient_full(
            net.stack, priors, l
        )
        analytic[f"stack_b{l}"] = np.zeros_like(net.stack.biases[l])
    for t in range(2):
        for x, y in zip(xs[t], ys[t]):
            g = backward(net, t, x, int(y))
            for l in range(len(net.trunk)):
                analytic[f"trunk_w{l}"] += g.trunk_weights[l]
                analytic[f"trunk_b{l}"] += g.trunk_biases[l]
            for l in range(len(net.stack.weights)):
                analytic[f"stack_w{l}"] += g.stack_weights[l]
                analytic[f"stack_b{l}"] += g.stack_biases[l]

    arrays = {}
    for l, layer in enumerate(net.trunk):
        arrays[f"trunk_w{l}"] = layer.weight
        arrays[f"trunk_b{l}"] = layer.bias
    for l in range(len(net.stack.weights)):
        arrays[f"stack_w{l}"] = net.stack.weights[l]
        arrays[f"stack_b{l}"] = net.stack.biases[l]

    h = 1e-5
    flat_analytic, flat_fd = [], []
    for name, arr in arrays.items():
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss()
            arr[idx] = orig - h
            down = loss()
            arr[idx] = orig
            fd[idx] = (up - down) / (2.0 * h)
            it.iternext()
        np.testing.assert_allclose(
            analytic[name], fd, rtol=1e-6, atol=1e-8, err_msg=name
        )
        flat_analytic.append(analytic[name].ravel())
        flat_fd.append(fd.ravel())
    a = np.concatenate(flat_analytic)
    f = np.concatenate(flat_fd)
    assert np.linalg.norm(a - f) / np.linalg.norm(f) < 1e-6
    assert time.perf_counter() - start < 10.0


def test_06_covariance_update_matches_dense_brute_force():
    """One refit sweep on a (6, 4, 3) stack vs. materialized-Kronecker
    arithmetic: rel. tol 1e-10."""
    rng = np.random.default_rng(66)
    din, dout, tasks = 6, 4, 3
    w = rng.standard_normal((din, dout, tasks))
    stack = TaskLayerStack(["classifier"], [w.copy()], [np.zeros((tasks, dout))])
    prior = KronCovariance([unit_trace_spd(rng, d) for d in (din, dout, tasks)])
    cov = CovarianceState(layer_ids=["classifier"], priors=[prior])
    eps = 0.05
    cfg = TrainConfig(epsilon_ridge=eps)
    got = update_covariances(stack, cov, cfg)

    factors = [f.matrix.copy() for f in cov.priors[0].factors]
    d = din * dout * tasks
    for k in range(3):
        others = [factors[j] for j in range(3) if j != k]
        inv_rest = np.linalg.inv(np.kron(others[0], others[1]))
        mat = matricize(w, k + 1)
        gram = mat @ inv_rest @ mat.T / (d // w.shape[k])
        s = gram + eps * np.eye(w.shape[k])
        factors[k] = s / np.trace(s)

    for want, have in zip(factors, got.priors[0].factors):
        np.testing.assert_allclose(have.matrix, want, rtol=1e-10, atol=1e-12)


OMEGA = [
    [1.0, 0.9, 0.9, 0.0],
    [0.9, 1.0, 0.9, 0.0],
    [0.9, 0.9, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
]


def experiment_config(variant: str, seed: int, output_dir: str) -> dict:
    """The frozen multi-task-gain setup: 4 tasks, 20 features, 3 classes,
    30 train / 500 test rows per task, correlation 0.9 among the first
    three tasks and none to the fourth."""
    return {
        "schema_version": 1,
        "variant": variant,
        "data": {
            "synthetic": {
                "num_tasks": 4,
                "feature_dim": 20,
                "num_classes": 3,
                "samples_per_task": 30,
                "task_covariance": OMEGA,
                "noise_scale": 1.0,
                "seed": seed,
                "test_samples_per_task": 500,
            }
        },
        "model": {"trunk_widths": [], "bottleneck_width": 8, "tied_init": True},
        "train": {
            "learning_rate": 0.01,
            "momentum": 0.5,
            "batch_size": 16,
            "epochs": 100,
            "prior_weight": 0.003 if variant != "stl" else 0.0,
            "epsilon_ridge": 1.0,
            "seed": seed,
        },
        "output_dir": output_dir,
    }


def final_mean_test_accuracy(report_csv: Path) -> float:
    lines = report_csv.read_text().strip().split("\n")
    header = lines[0].split(",")
    cols = [i for i, h in enumerate(header) if h.startswith("test_acc_")]
    assert cols, "report carries no test accuracy columns"
    last = lines[-1].split(",")
    return float(np.mean([float(last[i]) for i in cols]))


@pytest.fixture(scope="module")
def multitask_experiment(tmp_path_factory):
    """Train both variants on five seeds; shared by criteria 07 and 08."""
    root = tmp_path_factory.mktemp("gain")
    start = time.perf_counter()
    drn, stl, relationships = [], [], []
    for seed in range(5):
        for variant in ("drn", "stl"):
            out = root / f"{variant}{seed}"
            cfg = parse_experiment_config(
                experiment_config(variant, seed, out.name), root
            )
            run_experiment(cfg, out)
            acc = final_mean_test_accuracy(out / "report.csv")
            if variant == "drn":
                drn.append(acc)
                rel = load_json(out / "relationship_bottleneck.json")
                relationships.append(np.asarray(rel["correlation"]))
            else:
                stl.append(acc)
    return {
        "drn": drn,
        "stl": stl,
        "relationships": relationships,
        "elapsed": time.perf_counter() - start,
    }


def test_07_joint_training_beats_independent_training(multitask_experiment):
    """Mean test accuracy: joint >= independent overall, strictly
    greater on at least 3 of 5 seeds, under 60 s for all runs."""
    drn = multitask_experiment["drn"]
    stl = multitask_experiment["stl"]
    wins = sum(d > s for d, s in zip(drn, stl))
    assert float(np.mean(drn)) >= float(np.mean(stl))
    assert wins >= 3
    assert multitask_experiment["elapsed"] < 60.0


def test_08_learned_relationships_recover_task_structure(multitask_experiment):
    """On >= 4 of 5 seeds every correlation within the related triple
    exceeds every correlation to the unrelated task."""
    hits = 0
    for corr in multitask_experiment["relationships"]:
        within = min(corr[i, j] for i in range(3) for j in range(3) if i < j)
        cross = max(corr[i, 3] for i in range(3))
        if within > cross:
            hits += 1
    assert hits >= 4


def test_09_epoch_cost_scales_linearly_and_op_counts_match_model():
    """Per-epoch CPU time over N in {1k, 2k, 4k} fits a line with
    <= 25% residual; task-mode refit op counts track T^2*Di*Do + T^3
    across a 2x size change within a factor of two."""

    cfg = TrainConfig(
        learning_rate=0.01,
        momentum=0.5,
        batch_size=16,
        epochs=1,
        prior_weight=0.003,
        epsilon_ridge=1.0,
        seed=0,
    )

    def epoch_time(ds) -> float:
        net = init_network(
            20, [], [8, 3], 4, np.random.default_rng([0, 2]), tied_tasks=True
        )
        cov = CovarianceState.identity_for(net.stack)
        state = OptimizerState.zeros_like(net)
        # CPU time of the process: time spent descheduled on a busy host
        # does not count.
        t0 = time.process_time()
        sgd_epoch(net, cov, ds, cfg, state)
        return time.process_time() - t0

    rows = np.array([1000, 2000, 4000])
    datasets = [
        generate_synthetic(SyntheticSpec(4, 20, 3, n // 4, np.eye(4), seed=0))[0]
        for n in rows
    ]
    # Best of 5, the sizes interleaved within each rep: a slow spell of
    # the host then slows one rep of every size, not every rep of one.
    times = np.full(rows.size, np.inf)
    for _ in range(5):
        for i, ds in enumerate(datasets):
            times[i] = min(times[i], epoch_time(ds))
    design = np.stack([np.ones(rows.size), rows], axis=1)
    coef, *_ = np.linalg.lstsq(design, times, rcond=None)
    pred = design @ coef
    assert float(np.max(np.abs(pred - times) / times)) <= 0.25

    def task_mode_ops(din: int, dout: int, tasks: int) -> tuple:
        rng = np.random.default_rng([99, din, dout, tasks])
        w = rng.standard_normal((din, dout, tasks))
        stack = TaskLayerStack(["classifier"], [w], [np.zeros((tasks, dout))])
        cov = CovarianceState.identity_for(stack)
        counter = OpCounter()
        update_covariances(stack, cov, TrainConfig(), counter)
        counted = counter["mode3_gram"] + counter["mode3_factor"]
        model = tasks**2 * din * dout + tasks**3
        return counted, model

    c1, m1 = task_mode_ops(6, 4, 3)
    c2, m2 = task_mode_ops(12, 8, 6)
    ratio1, ratio2 = c1 / m1, c2 / m2
    assert 0.5 <= ratio1 / ratio2 <= 2.0


def test_10_training_command_is_byte_deterministic(tmp_path):
    """The same config and seed produce byte-identical report CSV and
    relationship JSON files."""
    doc = experiment_config("drn", 0, "a")
    doc["train"]["epochs"] = 10
    cfg_a = tmp_path / "a.json"
    cfg_a.write_text(json.dumps(doc))
    doc["output_dir"] = "b"
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg_a)]) == 0
    assert main(["train", "--config", str(cfg_b)]) == 0
    for name in (
        "report.csv",
        "relationship_bottleneck.json",
        "relationship_classifier.json",
    ):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
