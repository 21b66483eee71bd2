"""Training loop semantics: SGD equivalences, covariance updates, reports."""

import importlib.util
import inspect
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    backward,
    dense_cov,
    per_batch_sgd_epoch,
    solve_kron,
    task_accuracy,
    task_log_loss,
)
from relnet import network, tensor_normal, trainer
from relnet.data import MultiTaskDataset, SyntheticSpec, generate_synthetic
from relnet.network import TaskLayerStack, forward, init_network, prior_penalty
from relnet.tensor_normal import EstimationError, KronCovariance, SpdFactor
from relnet.trainer import (
    CovarianceState,
    OpCounter,
    OptimizerState,
    TrainConfig,
    TrainingError,
    extract_relationship,
    learning_rate_at,
    sgd_epoch,
    train,
    update_covariances,
)


def toy_data(sizes=(12, 9), dim=4, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    feats = [rng.standard_normal((n, dim)) for n in sizes]
    labs = [rng.integers(0, num_classes, size=n) for n in sizes]
    return MultiTaskDataset(
        [f"task{i}" for i in range(len(sizes))], feats, labs, num_classes
    )


def unit_identity_state(stack):
    """Unscaled identity factors, so the prior inverse is the identity."""
    return CovarianceState(
        layer_ids=list(stack.layer_ids),
        priors=[
            KronCovariance([SpdFactor.identity(d) for d in w.shape])
            for w in stack.weights
        ],
    )


def clone_net(net):
    import copy

    return copy.deepcopy(net)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(epsilon_ridge=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_schedule="step")

    def test_schedules(self):
        cfg = TrainConfig(learning_rate=0.1)
        assert learning_rate_at(cfg, 500) == 0.1
        decayed = TrainConfig(
            learning_rate=0.1, lr_schedule="inv", lr_gamma=0.01, lr_power=0.5
        )
        assert learning_rate_at(decayed, 0) == pytest.approx(0.1)
        assert learning_rate_at(decayed, 300) == pytest.approx(
            0.1 * (1 + 0.01 * 300) ** -0.5
        )


class TestSgdEpoch:
    def test_full_batch_no_prior_is_gradient_descent(self):
        """lambda=0, one task, zero momentum, one batch: the step equals
        explicit full-batch descent on the mean cross-entropy."""
        rng = np.random.default_rng(1)
        data = toy_data(sizes=(8,), dim=4, seed=2)
        net = init_network(4, [3], [3, 3], 1, rng)
        reference = clone_net(net)
        cfg = TrainConfig(
            learning_rate=0.05,
            momentum=0.0,
            batch_size=8,
            epochs=1,
            prior_weight=0.0,
            new_layer_lr_multiplier=10.0,
            seed=3,
        )
        cov = CovarianceState.identity_for(net.stack)
        sgd_epoch(net, cov, data, cfg, OptimizerState.zeros_like(net))

        grads = [backward(reference, 0, data.features[0][i], data.labels[0][i])
                 for i in range(8)]
        mean_tw = [np.mean([g.trunk_weights[j] for g in grads], axis=0)
                   for j in range(1)]
        mean_tb = [np.mean([g.trunk_biases[j] for g in grads], axis=0)
                   for j in range(1)]
        mean_sw = [np.mean([g.stack_weights[l] for g in grads], axis=0)
                   for l in range(2)]
        mean_sb = [np.mean([g.stack_biases[l] for g in grads], axis=0)
                   for l in range(2)]
        np.testing.assert_allclose(
            net.trunk[0].weight,
            reference.trunk[0].weight - 0.05 * mean_tw[0],
            atol=1e-10,
        )
        np.testing.assert_allclose(
            net.trunk[0].bias,
            reference.trunk[0].bias - 0.05 * mean_tb[0],
            atol=1e-10,
        )
        for l in range(2):
            np.testing.assert_allclose(
                net.stack.weights[l],
                reference.stack.weights[l] - 0.5 * mean_sw[l],
                atol=1e-10,
            )
            np.testing.assert_allclose(
                net.stack.biases[l],
                reference.stack.biases[l] - 0.5 * mean_sb[l],
                atol=1e-10,
            )

    def test_identity_prior_is_weight_decay(self):
        """Unit identity covariances, lambda=1 and momentum 0: the prox
        after the one full batch is decoupled weight decay of the
        task-specific weights, ``(W - lr * mean_g) / (1 + lr)`` (atol
        1e-10); the biases take the plain step."""
        rng = np.random.default_rng(4)
        data = toy_data(sizes=(6, 10), dim=5, seed=5)
        net = init_network(5, [], [4, 3], 2, rng)
        reference = clone_net(net)
        total = sum(data.task_sizes)
        cfg = TrainConfig(
            learning_rate=0.02,
            momentum=0.0,
            batch_size=total,
            epochs=1,
            prior_weight=1.0,
            new_layer_lr_multiplier=10.0,
            seed=6,
        )
        cov = unit_identity_state(net.stack)
        sgd_epoch(net, cov, data, cfg, OptimizerState.zeros_like(net))

        grads = []
        for t in range(2):
            for i in range(data.task_sizes[t]):
                grads.append(
                    backward(reference, t, data.features[t][i], data.labels[t][i])
                )
        lr_stack = 0.02 * 10.0
        for l in range(2):
            mean_w = np.sum([g.stack_weights[l] for g in grads], axis=0) / total
            stepped = reference.stack.weights[l] - lr_stack * mean_w
            want = stepped / (1.0 + lr_stack)
            np.testing.assert_allclose(net.stack.weights[l], want, atol=1e-10)
            mean_b = np.sum([g.stack_biases[l] for g in grads], axis=0) / total
            np.testing.assert_allclose(
                net.stack.biases[l],
                reference.stack.biases[l] - lr_stack * mean_b,
                atol=1e-10,
            )

    def test_prior_weight_zero_ignores_covariances(self):
        """With lambda=0 the covariance state cannot steer the trajectory."""
        rng = np.random.default_rng(7)
        data = toy_data(sizes=(9, 9), dim=4, seed=8)
        net_a = init_network(4, [], [3, 3], 2, rng)
        net_b = clone_net(net_a)
        cfg = TrainConfig(prior_weight=0.0, epochs=1, batch_size=4, seed=9)

        cov_a = CovarianceState.identity_for(net_a.stack)
        cov_b = unit_identity_state(net_b.stack)
        scaled = SpdFactor(np.diag([5.0, 0.1, 2.0][: net_b.num_tasks]))
        cov_b.priors = [KronCovariance([*p.factors[:2], scaled]) for p in cov_b.priors]

        sgd_epoch(net_a, cov_a, data, cfg, OptimizerState.zeros_like(net_a))
        sgd_epoch(net_b, cov_b, data, cfg, OptimizerState.zeros_like(net_b))
        for l in range(2):
            np.testing.assert_array_equal(
                net_a.stack.weights[l], net_b.stack.weights[l]
            )

    def test_epoch_accumulates_full_prior_once_per_task(self):
        """Over an epoch, the prior's contribution to each task's weights
        is lambda times its gradient slice, regardless of batching."""
        rng = np.random.default_rng(10)
        data = toy_data(sizes=(7, 5), dim=3, seed=11)
        net = init_network(3, [], [3], 2, rng)
        lam = 0.7
        # Freeze the weights so each batch sees the same prior gradient:
        # learning rate tiny, momentum 0, then measure the accumulated
        # prior term by comparing against a lambda=0 twin.
        cfg_prior = TrainConfig(
            learning_rate=1e-12,
            momentum=0.0,
            batch_size=4,
            epochs=1,
            prior_weight=lam,
            new_layer_lr_multiplier=1.0,
            seed=12,
        )
        cfg_plain = TrainConfig(
            learning_rate=1e-12,
            momentum=0.0,
            batch_size=4,
            epochs=1,
            prior_weight=0.0,
            new_layer_lr_multiplier=1.0,
            seed=12,
        )
        cov = unit_identity_state(net.stack)
        w0 = net.stack.weights[0].copy()

        net_a = clone_net(net)
        net_b = clone_net(net)
        sgd_epoch(net_a, cov, data, cfg_prior, OptimizerState.zeros_like(net_a))
        sgd_epoch(net_b, cov, data, cfg_plain, OptimizerState.zeros_like(net_b))
        # Difference of the two trajectories isolates the prior term: the
        # epoch's one prox divides W by 1 + lr * lam, to first order a
        # step of lr * lam * W for every task.
        diff = (net_b.stack.weights[0] - net_a.stack.weights[0]) / 1e-12
        np.testing.assert_allclose(diff, lam * w0, rtol=1e-3)

    @pytest.mark.parametrize("rows", [8, 32])
    def test_full_batch_fixed_point_weights_the_prior_by_the_rows(self, rows):
        """With the factors held fixed and one batch of all ``N`` rows,
        SGD and its prox come to rest where the summed data gradient of
        the stack weights is ``-N * lambda * Sigma^-1 vec(W)``.  The
        ``objective`` column is stationary at ``-lambda * Sigma^-1
        vec(W)``, so the loop applies ``N`` times the prior it reports
        (ROADMAP item 13, whose fix makes the factor 1)."""
        data = toy_data(sizes=(rows, rows), dim=3, num_classes=2, seed=52)
        net = init_network(3, [], [2], 2, np.random.default_rng(53))
        cov = CovarianceState.identity_for(net.stack)
        total, lam = 2 * rows, 0.05
        cfg = TrainConfig(
            learning_rate=0.05, momentum=0.5, batch_size=total, prior_weight=lam
        )
        state = OptimizerState.zeros_like(net)
        for _ in range(3000):
            sgd_epoch(net, cov, data, cfg, state)
        g = network.batch_gradients(
            net,
            np.repeat(np.arange(2), data.task_sizes),
            np.concatenate(data.features),
            np.concatenate(data.labels),
        )
        w = net.stack.weights[0]
        prior = np.linalg.solve(dense_cov(cov.priors[0]), w.ravel())
        np.testing.assert_allclose(
            g.stack_weights[0].ravel(), -total * lam * prior, rtol=1e-10
        )

    def test_epoch_on_a_copy_leaves_the_original(self):
        rng = np.random.default_rng(19)
        data = toy_data(sizes=(6, 5), dim=3, seed=20)
        net = init_network(3, [4], [3, 3], 2, rng)
        before = net.params.copy()
        dup = clone_net(net)
        sgd_epoch(
            dup,
            CovarianceState.identity_for(dup.stack),
            data,
            TrainConfig(epochs=1, batch_size=4),
            OptimizerState.zeros_like(dup),
        )
        np.testing.assert_array_equal(net.params, before)
        assert not np.array_equal(dup.params, before)

    def test_nonfinite_gradient_raises(self):
        rng = np.random.default_rng(13)
        data = toy_data(sizes=(4,), dim=3, num_classes=2, seed=14)
        net = init_network(3, [], [2], 1, rng)
        net.stack.weights[0][0, 0, 0] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=4, prior_weight=0.0)
        with pytest.raises(TrainingError, match="epoch 0"):
            sgd_epoch(
                net,
                CovarianceState.identity_for(net.stack),
                data,
                cfg,
                OptimizerState.zeros_like(net),
            )

    def test_nonfinite_gradient_names_the_array(self):
        rng = np.random.default_rng(13)
        data = toy_data(sizes=(4,), dim=3, num_classes=2, seed=14)
        net = init_network(3, [], [2], 1, rng)
        net.stack.biases[0][0, 1] = np.inf
        cfg = TrainConfig(epochs=1, batch_size=4, prior_weight=0.0)
        with pytest.raises(
            TrainingError,
            match=r"gradient of stack layer 'classifier' weights at epoch 0, batch 0",
        ), np.errstate(all="ignore"):
            sgd_epoch(
                net,
                CovarianceState.identity_for(net.stack),
                data,
                cfg,
                OptimizerState.zeros_like(net),
            )

    def test_weight_blowup_named_at_the_update(self):
        """An overflowing step is reported right after the update that
        made it, with the layer and quantity, not as a later symptom."""
        rng = np.random.default_rng(15)
        data = toy_data(sizes=(6, 5), dim=3, num_classes=2, seed=16)
        net = init_network(3, [], [4, 2], 2, rng)
        # lr * new_layer_lr_multiplier overflows to inf.
        cfg = TrainConfig(learning_rate=1e308, epochs=1, batch_size=4)
        with pytest.raises(
            TrainingError,
            match=r"stack layer 'bottleneck' weights after the update at "
            r"epoch 0, batch 0",
        ), np.errstate(all="ignore"):
            sgd_epoch(
                net,
                CovarianceState.identity_for(net.stack),
                data,
                cfg,
                OptimizerState.zeros_like(net),
            )

    def test_finite_gradient_whose_squared_norm_overflows_steps(self):
        """A gradient of entries near 1e160 is finite, but its squared
        norm overflows: the finiteness filter then scans, finds nothing,
        and the batch steps as the per-batch oracle steps, without a
        ``TrainingError`` and without an overflow warning."""
        data = toy_data(sizes=(4,), dim=3, num_classes=2, seed=14)
        data.features[0] *= 1e160
        net = init_network(3, [], [2], 1, np.random.default_rng(13))
        ref_net = clone_net(net)
        cfg = TrainConfig(epochs=1, batch_size=4, prior_weight=0.0)
        cov = CovarianceState.identity_for(net.stack)
        state, ref_state = OptimizerState.zeros_like(net), OptimizerState.zeros_like(net)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sgd_epoch(net, cov, data, cfg, state)
            per_batch_sgd_epoch(ref_net, cov, data, cfg, ref_state)
        # Entries beyond 1e155 square past the largest float.
        assert np.abs(net.params).max() > 1e155
        assert np.array_equal(net.params, ref_net.params)
        assert np.array_equal(state.velocity, ref_state.velocity)

    def test_label_out_of_range_raises_before_any_update(self):
        """A label set out of range after the dataset was built raises
        ``batch_gradients``' error before any parameter or velocity entry
        moves, also after a covariance refit."""
        data = toy_data(sizes=(6, 5), dim=3, num_classes=3, seed=21)
        net = init_network(3, [4], [3, 3], 2, np.random.default_rng(22))
        cfg = TrainConfig(batch_size=4, prior_weight=0.05, epsilon_ridge=0.1)
        cov = CovarianceState.identity_for(net.stack)
        state = OptimizerState.zeros_like(net)
        sgd_epoch(net, cov, data, cfg, state)
        cov = update_covariances(net.stack, cov, cfg)
        data.labels[1][-1] = 3
        params, velocity = net.params.copy(), state.velocity.copy()
        with pytest.raises(ValueError, match=r"^label out of range \[0, 3\)$"):
            sgd_epoch(net, cov, data, cfg, state)
        assert np.array_equal(net.params, params)
        assert np.array_equal(state.velocity, velocity)
        assert (state.iteration, state.epoch) == (3, 1)

    @pytest.mark.parametrize(
        "broken, message",
        [
            (
                lambda cov, other: other,
                r"^layer 'bottleneck': covariance dims \(3, 6, 2\) != weights "
                r"\(3, 5, 2\)$",
            ),
            (
                lambda cov, other: CovarianceState(cov.layer_ids, cov.priors[:1]),
                r"^need one covariance per stack layer \(2\), got 1$",
            ),
            (
                lambda cov, other: CovarianceState(["x", "y"], cov.priors),
                r"^covariance state does not match the stack$",
            ),
        ],
        ids=["bottleneck-6-state", "one-prior-for-two-layers", "renamed-ids"],
    )
    def test_covariance_state_must_match_the_stack(self, broken, message):
        """``sgd_epoch`` and ``update_covariances`` make one check of the
        covariance state against the stack: its layer ids, its prior
        count and each prior's dims.  A mismatch raises ``ValueError``
        before any parameter or velocity entry moves."""
        data = toy_data(sizes=(6, 5), dim=3, num_classes=3, seed=23)
        net = init_network(3, [], [5, 3], 2, np.random.default_rng(24))
        other = init_network(3, [], [6, 3], 2, np.random.default_rng(24))
        cov = broken(
            CovarianceState.identity_for(net.stack),
            CovarianceState.identity_for(other.stack),
        )
        cfg = TrainConfig(batch_size=4, prior_weight=0.05)
        state = OptimizerState.zeros_like(net)
        params = net.params.copy()
        with pytest.raises(ValueError, match=message):
            sgd_epoch(net, cov, data, cfg, state)
        assert np.array_equal(net.params, params)
        assert not state.velocity.any() and (state.iteration, state.epoch) == (0, 0)
        with pytest.raises(ValueError, match=message):
            update_covariances(net.stack, cov, cfg)

    def test_epoch_makes_no_copy_of_the_features(self):
        """On a fold whose 4 MB of features dominate, the allocation
        peak inside ``sgd_epoch`` stays below the features' size: the
        batches gather their rows from the dataset's own matrix, which
        is never copied whole."""
        data = toy_data(sizes=(600, 400), dim=512, num_classes=3, seed=31)
        net = init_network(512, [8], [4, 3], 2, np.random.default_rng(32))
        cfg = TrainConfig(batch_size=16, prior_weight=0.05)
        cov = CovarianceState.identity_for(net.stack)
        state = OptimizerState.zeros_like(net)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sgd_epoch(net, cov, data, cfg, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < sum(x.nbytes for x in data.features)


class TestBenchmarkHooks:
    """The benchmark times these entry points by wrapping them by name."""

    def test_entry_points_exist(self):
        params = list(inspect.signature(trainer.sgd_epoch).parameters)
        assert params == ["net", "cov", "data", "cfg", "state"]
        assert callable(tensor_normal.flip_flop_mle)

    def test_span_targets_resolve(self):
        """Every attribute the benchmark's span recorder wraps exists in
        the program, except the known stale hooks."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        hooks = [target[1:3] for target in spans.TARGETS]
        hooks += [step[:2] for step in spans.FIRST_STEP]
        missing = []
        for module_name, attr_path in hooks:
            owner = importlib.import_module(module_name)
            for part in attr_path.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append((module_name, attr_path))
        # The one-pass SGD batch replaced _batch_task_gradients with
        # batch_gradients; train() scores the objective itself, SGD
        # applies the prior as a proximal step in the factors'
        # eigenbasis, and fold_scores is the one scorer.  The benchmark still wraps the
        # old names.
        assert missing == [
            ("relnet.trainer", "objective"),
            ("relnet.network", "_batch_task_gradients"),
            ("relnet.network", "accuracy"),
            ("relnet.tensor_normal", "KronCovariance.apply_inverse"),
        ]

    def test_no_inverse_and_one_eigendecomposition_per_factor_per_epoch(
        self, monkeypatch
    ):
        """SGD's prox works in the joint eigenbasis of each layer's
        factors, so each epoch decomposes each stack layer's feature,
        output and task factor once, however many batches and proxes."""
        eigh_shapes = []
        original_eigh = np.linalg.eigh

        def counted_eigh(a):
            eigh_shapes.append(a.shape)
            return original_eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        rng = np.random.default_rng(17)
        # 19 batches of one row: two proxes per epoch.
        data = toy_data(sizes=(10, 9), dim=3, seed=18)
        net = init_network(3, [4], [5, 3], 2, rng)
        epochs = 3
        cfg = TrainConfig(
            epochs=epochs, batch_size=1, prior_weight=0.01, epsilon_ridge=1.0
        )
        train(net, data, cfg)
        per_epoch = [(d, d) for w in net.stack.weights for d in w.shape]
        assert sorted(eigh_shapes) == sorted(per_epoch * epochs)


def reference_sgd_epoch(net, cov, data, cfg, state):
    """:func:`sgd_epoch` by the formulas of its docstring: each batch
    steps on the data gradient alone, and after every
    ``trainer.PROX_EVERY`` batches and after the last, each stack
    layer's ``vec(W)`` is solved against the dense ``I + c * lambda *
    Sigma^-1``, with ``c`` the block's summed ``lr * mult * B / (N * (1 -
    momentum))``."""
    task_of = np.repeat(np.arange(net.num_tasks), data.task_sizes)
    features = np.concatenate(data.features)
    labels = np.concatenate(data.labels)
    perm = np.random.default_rng([cfg.seed, 0, state.epoch]).permutation(task_of.size)
    starts = list(range(0, perm.size, cfg.batch_size))
    mult, c = cfg.new_layer_lr_multiplier, 0.0
    for k, start in enumerate(starts):
        batch = perm[start : start + cfg.batch_size]
        tasks = task_of[batch]
        g = network.batch_gradients(net, tasks, features[batch], labels[batch])
        g.flat /= batch.size
        lr = learning_rate_at(cfg, state.iteration)
        rates = np.full(net.params.size, lr)
        rates[net.stack_start :] *= mult
        state.velocity[:] = cfg.momentum * state.velocity - rates * g.flat
        net.params += state.velocity
        state.iteration += 1
        c += lr * mult * batch.size / (perm.size * (1.0 - cfg.momentum))
        if (k + 1) % trainer.PROX_EVERY == 0 or k + 1 == len(starts):
            for w, prior in zip(net.stack.weights, cov.priors):
                precision = np.linalg.inv(dense_cov(prior))
                step = np.eye(w.size) + c * cfg.prior_weight * precision
                w[...] = np.linalg.solve(step, w.ravel()).reshape(w.shape)
            c = 0.0
    state.epoch += 1


@pytest.mark.parametrize(
    "trunk, stack, shared, schedule, batch_size",
    [
        pytest.param(  # drn with a trunk
            [6], [5, 3], False, "constant", 5, id="trunk0-stack0-False-constant"
        ),
        pytest.param(  # drn8: the classifier only
            [6, 5], [3], False, "constant", 5, id="trunk1-stack1-False-constant"
        ),
        pytest.param(  # shared_task_sigma
            [6], [5, 3], True, "constant", 5, id="trunk2-stack2-True-constant"
        ),
        pytest.param([6], [5, 3], False, "inv", 5, id="trunk3-stack3-False-inv"),
        pytest.param([6], [5, 3], False, "inv", 1, id="batch1-two-proxes"),
    ],
)
def test_eigenbasis_sgd_matches_the_inverse_reference(
    trunk, stack, shared, schedule, batch_size
):
    """Over three epochs with covariance refits between them, the prox
    made in the factors' joint eigenbasis gives the parameters and
    velocity of the reference loop's dense solve to 1e-12 relative.
    Batches of 1 make one prox after 16 batches and one after the 17th;
    batches of 5, which do not divide the 17 rows, make one per epoch."""
    data = toy_data(sizes=(7, 6, 4), dim=4, seed=40)
    net = init_network(4, trunk, stack, 3, np.random.default_rng(41))
    ref_net = clone_net(net)
    cfg = TrainConfig(
        learning_rate=0.01,
        momentum=0.9,
        batch_size=batch_size,
        prior_weight=0.05,
        epsilon_ridge=0.1,
        lr_schedule=schedule,
        lr_gamma=0.1,
        shared_task_sigma=shared,
        seed=42,
    )
    cov = ref_cov = CovarianceState.identity_for(net.stack, shared)
    state, ref_state = OptimizerState.zeros_like(net), OptimizerState.zeros_like(net)
    for _ in range(3):
        sgd_epoch(net, cov, data, cfg, state)
        reference_sgd_epoch(ref_net, ref_cov, data, cfg, ref_state)
        pairs = ((net.params, ref_net.params), (state.velocity, ref_state.velocity))
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert state.iteration == ref_state.iteration
        cov = update_covariances(net.stack, cov, cfg)
        ref_cov = update_covariances(ref_net.stack, ref_cov, cfg)
        # The refit factors are far from scaled identities, so the
        # eigenbasis is a real rotation from the second epoch on.
        q_in = cov.priors[0].factors[0].eigh[1]
        assert np.abs(q_in - np.diag(np.diag(q_in))).max() > 0.1


def _batch_of_5(*case, id):
    """A case at batch size 5, under the id it had before the table had
    a batch size column."""
    return pytest.param(*case, 5, id=id)


@pytest.mark.parametrize(
    "trunk, stack, prior_weight, shared, schedule, sizes, batch_size",
    [
        _batch_of_5(  # drn
            [6], [5, 3], 0.05, False, "constant", (7, 6, 4),
            id="trunk0-stack0-0.05-False-constant-sizes0",
        ),
        _batch_of_5(  # drn8
            [6, 5], [3], 0.05, False, "constant", (7, 6, 4),
            id="trunk1-stack1-0.05-False-constant-sizes1",
        ),
        _batch_of_5(  # no prior
            [6], [5, 3], 0.0, False, "constant", (7, 6, 4),
            id="trunk2-stack2-0.0-False-constant-sizes2",
        ),
        _batch_of_5(  # shared_task_sigma
            [6], [5, 3], 0.05, True, "constant", (7, 6, 4),
            id="trunk3-stack3-0.05-True-constant-sizes3",
        ),
        _batch_of_5(
            [6], [5, 3], 0.05, False, "inv", (7, 6, 4),
            id="trunk4-stack4-0.05-False-inv-sizes4",
        ),
        _batch_of_5(  # no trunk
            [], [5, 3], 0.05, False, "constant", (7, 6, 4),
            id="trunk5-stack5-0.05-False-constant-sizes5",
        ),
        _batch_of_5(  # no ragged batch
            [6], [5, 3], 0.05, False, "constant", (5, 6, 4),
            id="trunk6-stack6-0.05-False-constant-sizes6",
        ),
        # Power-of-two batches: the kernel folds 1/B into dz.
        pytest.param(
            [6], [5, 3], 0.05, False, "constant", (7, 6, 4), 4, id="batch4-ragged1"
        ),
        pytest.param(
            [6], [5, 3], 0.05, False, "constant", (5, 6, 4), 8, id="batch8-trunk"
        ),
        pytest.param(
            [], [5, 3], 0.05, False, "constant", (5, 6, 4), 8, id="batch8-no-trunk"
        ),
        pytest.param(
            [6], [5, 3], 0.0, False, "constant", (5, 6, 4), 8, id="batch8-no-prior"
        ),
        # 17 batches of one row: a prox after the 16th and after the 17th.
        pytest.param(
            [6], [5, 3], 0.05, False, "constant", (7, 6, 4), 1, id="batch1-two-proxes"
        ),
    ],
)
def test_sgd_epoch_equals_the_per_batch_loop(
    trunk, stack, prior_weight, shared, schedule, sizes, batch_size
):
    """Over three epochs with covariance refits between them,
    ``sgd_epoch`` gives exactly the parameters, velocity and iteration
    of the per-batch oracle.  Batches of 5 leave a last batch of 2 of 17
    rows, and divide 15.  Batches of 4 over 17 rows and of 8 over 15
    rows are full batches of a power-of-two size, whose ``1/B`` scale
    ``sgd_epoch`` folds into the kernel's ``dz``, then a ragged batch of
    1 or 7 rows, scaled after the kernel as the oracle scales each one.
    With a prior, every case but batches of 1 makes one prox per epoch,
    after its last batch."""
    data = toy_data(sizes=sizes, dim=4, seed=43)
    net = init_network(4, trunk, stack, 3, np.random.default_rng(44))
    ref_net = clone_net(net)
    cfg = TrainConfig(
        learning_rate=0.01,
        momentum=0.9,
        batch_size=batch_size,
        prior_weight=prior_weight,
        epsilon_ridge=0.1,
        lr_schedule=schedule,
        lr_gamma=0.1,
        shared_task_sigma=shared,
        seed=45,
    )
    cov = CovarianceState.identity_for(net.stack, shared)
    state, ref_state = OptimizerState.zeros_like(net), OptimizerState.zeros_like(net)
    for _ in range(3):
        sgd_epoch(net, cov, data, cfg, state)
        per_batch_sgd_epoch(ref_net, cov, data, cfg, ref_state)
        assert np.array_equal(net.params, ref_net.params)
        assert np.array_equal(state.velocity, ref_state.velocity)
        assert (state.iteration, state.epoch) == (ref_state.iteration, ref_state.epoch)
        if prior_weight > 0.0:
            cov = update_covariances(net.stack, cov, cfg)


def test_batch_beyond_int64_is_the_whole_epoch():
    """A batch size of 2**63, beyond int64, steps exactly as a batch of
    all 17 rows."""
    data = toy_data(sizes=(7, 6, 4), dim=4, seed=43)
    net = init_network(4, [6], [5, 3], 3, np.random.default_rng(44))
    ref_net = clone_net(net)
    cfg = TrainConfig(learning_rate=0.01, momentum=0.9, prior_weight=0.05, seed=45)
    cov = CovarianceState.identity_for(net.stack)
    state, ref_state = OptimizerState.zeros_like(net), OptimizerState.zeros_like(net)
    for _ in range(2):
        sgd_epoch(net, cov, data, replace(cfg, batch_size=2**63), state)
        sgd_epoch(ref_net, cov, data, replace(cfg, batch_size=17), ref_state)
        assert np.array_equal(net.params, ref_net.params)
        assert np.array_equal(state.velocity, ref_state.velocity)
        assert state.iteration == ref_state.iteration
        cov = update_covariances(net.stack, cov, cfg)


def dense_update_oracle(stack, cov, cfg):
    """Brute-force Gauss-Seidel sweep with materialized Kronecker inverses.

    Layers whose priors hold one task factor object share it: their task
    Grams are summed and divided by their summed ``D_in * D_out`` before
    the ridge, and each of them gets the one pooled task factor."""
    feats, outs, tasks = (
        [p.factors[k].matrix.copy() for p in cov.priors] for k in range(3)
    )
    eps = cfg.epsilon_ridge
    pooled = {}
    for l, w in enumerate(stack.weights):
        din, dout, t = w.shape
        m1 = w.reshape(din, dout * t)
        k = np.kron(outs[l], tasks[l])
        s = m1 @ np.linalg.inv(k) @ m1.T / (dout * t) + eps * np.eye(din)
        feats[l] = s / np.trace(s)

        m2 = w.transpose(1, 0, 2).reshape(dout, din * t)
        k = np.kron(feats[l], tasks[l])
        s = m2 @ np.linalg.inv(k) @ m2.T / (din * t) + eps * np.eye(dout)
        outs[l] = s / np.trace(s)

        m3 = w.transpose(2, 0, 1).reshape(t, din * dout)
        k = np.kron(feats[l], outs[l])
        group = pooled.setdefault(id(cov.priors[l].factors[2]), [0.0, 0, []])
        group[0] = group[0] + m3 @ np.linalg.inv(k) @ m3.T
        group[1] += din * dout
        group[2].append(l)
    for gram, weight, layers in pooled.values():
        s = gram / weight + eps * np.eye(len(gram))
        for l in layers:
            tasks[l] = s / np.trace(s)
    return feats, outs, tasks


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


class TestUpdateCovariances:
    def test_zero_weights_give_scaled_identities(self):
        """All-zero stack: Gram vanishes and each factor becomes I/dim."""
        rng = np.random.default_rng(15)
        net = init_network(4, [], [3, 2], 3, rng)
        for w in net.stack.weights:
            w[:] = 0.0
        cov = CovarianceState.identity_for(net.stack)
        new = update_covariances(net.stack, cov, TrainConfig())
        for prior, w in zip(new.priors, net.stack.weights):
            for f, d in zip(prior.factors, w.shape):
                np.testing.assert_allclose(f.matrix, np.eye(d) / d, rtol=1e-12)

    def test_single_task_factor_is_one(self):
        rng = np.random.default_rng(16)
        net = init_network(4, [], [3], 1, rng)
        cov = CovarianceState.identity_for(net.stack)
        new = update_covariances(net.stack, cov, TrainConfig())
        np.testing.assert_allclose(
            new.priors[0].factors[2].matrix, [[1.0]], rtol=1e-15
        )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        net = init_network(5, [], [4, 3], 3, rng)
        cov = CovarianceState.identity_for(net.stack)
        cfg = TrainConfig(epsilon_ridge=1e-3)
        new = update_covariances(net.stack, cov, cfg)
        feats, outs, tasks = dense_update_oracle(net.stack, cov, cfg)
        for l in range(2):
            feature, output, task = new.priors[l].factors
            np.testing.assert_allclose(feature.matrix, feats[l], rtol=1e-10)
            np.testing.assert_allclose(output.matrix, outs[l], rtol=1e-10)
            np.testing.assert_allclose(task.matrix, tasks[l], rtol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 5), min_size=2, max_size=4),
        st.integers(1, 5),
        st.booleans(),
        st.floats(1e-3, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_sweep_matches_dense_oracle(self, widths, tasks, shared, eps, seed):
        """Stacks of 1-3 layers with dims 1-5 per mode, random SPD
        factors and weights, with and without one shared task factor."""
        rng = np.random.default_rng(seed)
        weights = [
            rng.standard_normal((din, dout, tasks))
            for din, dout in zip(widths, widths[1:])
        ]
        ids = [f"layer{l}" for l in range(len(weights))]
        stack = TaskLayerStack(
            ids, weights, [np.zeros((tasks, w.shape[1])) for w in weights]
        )
        task = SpdFactor(random_spd(rng, tasks))
        priors = [
            KronCovariance([
                random_spd(rng, w.shape[0]),
                random_spd(rng, w.shape[1]),
                task if shared else random_spd(rng, tasks),
            ])
            for w in weights
        ]
        cfg = TrainConfig(epsilon_ridge=eps)
        new = update_covariances(stack, CovarianceState(ids, priors), cfg)
        want = dense_update_oracle(stack, CovarianceState(ids, priors), cfg)
        for l, prior in enumerate(new.priors):
            for k, f in enumerate(prior.factors):
                np.testing.assert_allclose(
                    f.matrix, want[k][l], rtol=1e-10,
                    atol=1e-10 * np.abs(want[k][l]).max(),
                )
        if shared:
            assert all(p.factors[2] is new.priors[0].factors[2] for p in new.priors)

    def test_sharing_is_read_from_the_state(self):
        """A refit keeps its input state's task-factor sharing whatever
        ``shared_task_sigma`` says, and leaves the input state as it was:
        a pooled state is refit pooled under the default config, and a
        per-layer state layer by layer under ``shared_task_sigma``."""
        net = init_network(5, [], [4, 3], 3, np.random.default_rng(22))
        for shared in (True, False):
            cov = CovarianceState.identity_for(net.stack, shared_task=shared)
            objects = [list(p.factors) for p in cov.priors]
            matrices = [[f.matrix.copy() for f in p.factors] for p in cov.priors]
            cfg = TrainConfig(shared_task_sigma=not shared)
            new = update_covariances(net.stack, cov, cfg)
            tasks = [p.factors[2] for p in new.priors]
            assert (tasks[0] is tasks[1]) is shared
            want = dense_update_oracle(net.stack, cov, cfg)
            for l, prior in enumerate(new.priors):
                for k, f in enumerate(prior.factors):
                    np.testing.assert_allclose(f.matrix, want[k][l], rtol=1e-10)
            for prior, olds, mats in zip(cov.priors, objects, matrices):
                for f, old, m in zip(prior.factors, olds, mats):
                    assert f is old and np.array_equal(f.matrix, m)

    def test_factors_spd_unit_trace(self):
        rng = np.random.default_rng(18)
        net = init_network(6, [], [4, 3], 4, rng)
        cov = CovarianceState.identity_for(net.stack)
        cfg = TrainConfig()
        for _ in range(3):
            cov = update_covariances(net.stack, cov, cfg)
            for prior in cov.priors:
                for f in prior.factors:
                    assert np.trace(f.matrix) == pytest.approx(1.0, rel=1e-12)
                    assert np.all(np.linalg.eigvalsh(f.matrix) > 0)

    def test_shared_task_sigma_pools_layers(self):
        """Pooled mode-3 stats: grams summed, weighted by D_in*D_out."""
        rng = np.random.default_rng(19)
        net = init_network(5, [], [4, 3], 3, rng)
        cov = CovarianceState.identity_for(net.stack, shared_task=True)
        cfg = TrainConfig(shared_task_sigma=True)
        new = update_covariances(net.stack, cov, cfg)
        assert new.priors[0].factors[2] is new.priors[1].factors[2]

        feats = [p.factors[0].matrix for p in new.priors]
        outs = [p.factors[1].matrix for p in new.priors]
        pooled = np.zeros((3, 3))
        weight = 0
        for l, w in enumerate(net.stack.weights):
            din, dout, t = w.shape
            m3 = w.transpose(2, 0, 1).reshape(t, din * dout)
            k = np.kron(feats[l], outs[l])
            pooled += m3 @ np.linalg.inv(k) @ m3.T
            weight += din * dout
        s = pooled / weight + cfg.epsilon_ridge * np.eye(3)
        s = s / np.trace(s)
        np.testing.assert_allclose(new.priors[0].factors[2].matrix, s, rtol=1e-10)

    def test_huge_ridge_approaches_weight_decay(self):
        """Ridge dominating the Gram pushes every factor toward I/dim, and
        the prior gradient toward a scalar multiple of the weights."""
        rng = np.random.default_rng(20)
        net = init_network(4, [], [3], 2, rng)
        cov = CovarianceState.identity_for(net.stack)
        cfg = TrainConfig(epsilon_ridge=1e9)
        new = update_covariances(net.stack, cov, cfg)
        for f, d in zip(new.priors[0].factors, (4, 3, 2)):
            np.testing.assert_allclose(f.matrix, np.eye(d) / d, atol=1e-6)
        w = net.stack.weights[0]
        grad = solve_kron(new.priors[0], w)
        np.testing.assert_allclose(grad, 24.0 * w, rtol=1e-5)

    def test_op_counter_populated(self):
        rng = np.random.default_rng(21)
        net = init_network(6, [], [4], 3, rng)
        counter = OpCounter()
        update_covariances(
            net.stack,
            CovarianceState.identity_for(net.stack),
            TrainConfig(),
            counter,
        )
        din, dout, t = 6, 4, 3
        assert counter["mode3_gram"] == t * t * din * dout
        assert counter["mode3_factor"] == t**3 // 3
        assert counter["mode1_gram"] == din * din * dout * t


def spelled_out_objective(net, cov, data, cfg):
    """The epoch objective spelled out: the summed cross-entropy of every
    task plus ``prior_weight`` times the prior penalty."""
    losses = [
        task_log_loss(net, t, data.features[t], data.labels[t])
        for t in range(data.num_tasks)
    ]
    return float(sum(losses)) + cfg.prior_weight * prior_penalty(
        net.stack, cov.priors
    )


class TestObjective:
    """Each report row's ``objective`` is that of the epoch's network and
    covariances.  A run of ``e`` epochs is the first ``e`` epochs of a
    longer run, so each row is checked against the state a run of that
    many epochs returns."""

    @staticmethod
    def rows_and_states(data, trunk, stack, cfg):
        """``(records, net, cov)`` of runs of 1 to ``cfg.epochs`` epochs,
        checking that each run's rows begin with the previous run's."""
        previous = []
        for e in range(1, cfg.epochs + 1):
            net = init_network(
                data.feature_dim, trunk, stack, data.num_tasks,
                np.random.default_rng(50),
            )
            net, cov, report = train(net, data, replace(cfg, epochs=e))
            objectives = [r.objective for r in report.records]
            assert objectives[:-1] == previous
            previous = objectives
            yield report.records, net, cov

    def test_no_prior_is_summed_cross_entropy(self):
        data = toy_data(sizes=(5, 4), dim=4, seed=23)
        cfg = TrainConfig(epochs=2, batch_size=3, prior_weight=0.0, seed=22)
        for records, net, cov in self.rows_and_states(data, [], [3], cfg):
            want = 0.0
            for t in range(2):
                for i in range(data.task_sizes[t]):
                    p = forward(net, t, data.features[t][i : i + 1])
                    want += -np.log(p[0, data.labels[t][i]])
            assert records[-1].objective == pytest.approx(want, rel=1e-10)

    def test_prior_term_added(self):
        """Bit for bit, every epoch, for ``drn``, ``drn8``, ``stl`` and a
        shared task factor; the prior term is 0 for ``stl``."""
        data = toy_data(sizes=(6, 5, 4), dim=4, seed=25)
        cfg = TrainConfig(
            learning_rate=0.002, epochs=3, batch_size=4, prior_weight=0.37,
            epsilon_ridge=0.1, seed=24,
        )
        variants = {
            "drn": ([5], [4, 3], {}),
            "drn8": ([5, 4], [3], {}),
            "stl": ([5], [4, 3], {"prior_weight": 0.0}),
            "shared_task_sigma": ([5], [4, 3], {"shared_task_sigma": True}),
        }
        for trunk, stack, overrides in variants.values():
            run_cfg = replace(cfg, **overrides)
            for records, net, cov in self.rows_and_states(data, trunk, stack, run_cfg):
                want = spelled_out_objective(net, cov, data, run_cfg)
                assert records[-1].objective == want


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        rng = np.random.default_rng(26)
        data = toy_data(sizes=(6, 6), dim=4, seed=27)
        net = init_network(4, [], [3, 3], 2, rng)
        before = clone_net(net)
        out, cov, report = train(net, data, TrainConfig(epochs=0))
        assert report.records == []
        for l in range(2):
            np.testing.assert_array_equal(
                out.stack.weights[l], before.stack.weights[l]
            )
        np.testing.assert_allclose(cov.priors[0].factors[0].matrix, np.eye(4) / 4)

    def test_bit_identical_across_runs(self):
        """Same config and seed: parameter trajectories and report rows
        agree bit for bit."""
        data = toy_data(sizes=(10, 8), dim=4, seed=28)
        cfg = TrainConfig(
            learning_rate=0.002, epochs=3, batch_size=5, seed=29
        )

        def run():
            net = init_network(4, [], [3, 3], 2, np.random.default_rng(30))
            return train(net, data, cfg, eval_data=data)

        net_a, cov_a, rep_a = run()
        net_b, cov_b, rep_b = run()
        for l in range(2):
            np.testing.assert_array_equal(
                net_a.stack.weights[l], net_b.stack.weights[l]
            )
            np.testing.assert_array_equal(
                cov_a.priors[l].factors[2].matrix, cov_b.priors[l].factors[2].matrix
            )
        for ra, rb in zip(rep_a.records, rep_b.records):
            assert ra.objective == rb.objective
            assert ra.train_accuracy == rb.train_accuracy
            assert ra.test_accuracy == rb.test_accuracy
            assert ra.residuals == rb.residuals

    def test_objective_decreases_on_easy_problem(self):
        ds, _ = generate_synthetic(
            SyntheticSpec(2, 6, 3, 60, np.eye(2), noise_scale=0.5, seed=31)
        )
        net = init_network(6, [], [4, 3], 2, np.random.default_rng(32))
        cfg = TrainConfig(
            learning_rate=0.002,
            epochs=8,
            batch_size=16,
            prior_weight=1.0,
            epsilon_ridge=0.1,
            seed=33,
        )
        _, _, report = train(net, ds, cfg)
        objectives = [r.objective for r in report.records]
        assert objectives[-1] < objectives[0]

    def test_report_csv_layout(self, tmp_path):
        data = toy_data(sizes=(8, 8), dim=3, seed=34)
        net = init_network(3, [], [3], 2, np.random.default_rng(35))
        cfg = TrainConfig(epochs=2, batch_size=4, seed=36)
        _, _, report = train(net, data, cfg, eval_data=data)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == (
            "epoch,objective,train_acc_task0,train_acc_task1,"
            "test_acc_task0,test_acc_task1,test_loss,residual_classifier"
        )
        assert len(lines) == 3
        timings = tmp_path / "timings.csv"
        report.timings_to_csv(timings)
        assert timings.read_text().split("\n")[0] == (
            "epoch,sgd_seconds,covariance_seconds,kernel_seconds,prox_seconds,"
            "scoring_seconds"
        )

    def test_timings_tile_the_epoch(self, tmp_path):
        """Every phase is a non-negative wall time; the kernel and the
        proxes lie within the SGD epoch, the proxes take no time without
        a prior, and SGD, refit and scoring together take no longer than
        the run."""
        data = toy_data(sizes=(20, 16), dim=3, seed=44)
        for prior_weight in (0.0, 0.5):
            net = init_network(3, [4], [3], 2, np.random.default_rng(45))
            cfg = TrainConfig(epochs=3, batch_size=4, prior_weight=prior_weight)
            start = time.perf_counter()
            _, _, report = train(net, data, cfg, eval_data=data)
            wall = time.perf_counter() - start
            path = tmp_path / "timings.csv"
            report.timings_to_csv(path)
            header, *lines = path.read_text().split()
            assert header == (
                "epoch,sgd_seconds,covariance_seconds,kernel_seconds,prox_seconds,"
                "scoring_seconds"
            )
            rows = [[float(cell) for cell in line.split(",")] for line in lines]
            assert [row[0] for row in rows] == [1, 2, 3]
            for _, sgd, cov, kernel, prox, scoring in rows:
                assert min(sgd, cov, kernel, prox, scoring) >= 0.0
                assert kernel + prox <= sgd
                assert prox == 0.0 if prior_weight == 0.0 else prox > 0.0
            assert sum(row[1] + row[2] + row[5] for row in rows) <= wall

    @pytest.mark.parametrize("prior_weight", [0.0, 0.5])
    def test_prox_seconds_count_the_eigenbases(self, monkeypatch, prior_weight):
        """``prox_seconds`` counts the prox's set-up, the eigenbases of
        ``_prox_bases``: set-up slowed by 0.05 s shows in every epoch's
        cell.  Without a prior no set-up runs and the cell stays 0."""
        original = trainer._prox_bases

        def slow(cov):
            time.sleep(0.05)
            return original(cov)

        monkeypatch.setattr(trainer, "_prox_bases", slow)
        data = toy_data(sizes=(10, 6), dim=3, seed=50)
        net = init_network(3, [], [3], 2, np.random.default_rng(51))
        cfg = TrainConfig(epochs=2, batch_size=4, prior_weight=prior_weight)
        _, _, report = train(net, data, cfg)
        for record in report.records:
            if prior_weight == 0.0:
                assert record.prox_seconds == 0.0
            else:
                assert record.prox_seconds >= 0.05
            assert record.kernel_seconds + record.prox_seconds <= record.sgd_seconds

    def test_test_loss_is_held_out_summed_cross_entropy(self, tmp_path):
        """``test_loss`` is the held-out fold's log losses summed as the
        objective sums the training fold's."""
        data = toy_data(sizes=(9, 7), dim=3, seed=46)
        held_out = toy_data(sizes=(5, 6), dim=3, seed=47)
        net = init_network(3, [], [3], 2, np.random.default_rng(48))
        cfg = TrainConfig(epochs=2, batch_size=4, seed=49)
        net, _, report = train(net, data, cfg, eval_data=held_out)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        header, *rows = [line.split(",") for line in path.read_text().split()]
        cell = rows[-1][header.index("test_loss")]
        assert float(cell) == sum(network.fold_scores(net, held_out)[0])

    def test_refit_failure_names_its_epoch(self, monkeypatch):
        """A refit that fails after the second epoch's SGD names epoch 1,
        counted from 0 as the objective's error counts it, before the
        layer and mode."""
        steps = []
        original = trainer._mode_step

        def negative(gram, m):
            return -np.eye(len(gram))

        def failing(z, factors, k, rule, what):
            steps.append(what)
            # The fifth step is the output mode of the second refit.
            return original(z, factors, k, negative if len(steps) == 5 else rule, what)

        monkeypatch.setattr(trainer, "_mode_step", failing)
        data = toy_data(sizes=(6, 5), dim=3, seed=41)
        net = init_network(3, [], [3], 2, np.random.default_rng(42))
        with pytest.raises(
            EstimationError,
            match="^covariance refit after epoch 1: layer 'classifier' output "
            "mode covariance update is not positive definite$",
        ):
            train(net, data, TrainConfig(epochs=3, batch_size=4, seed=43))

    def test_scores_are_objective_and_accuracy_from_one_pass(self, monkeypatch):
        """Each epoch runs one forward pass per task and fold, and its
        row equals the spelled-out objective and the oracle
        accuracies."""
        data = toy_data(sizes=(9, 7, 5), dim=3, seed=37)
        held_out = toy_data(sizes=(4, 6, 3), dim=3, seed=38)
        cfg = TrainConfig(epochs=2, batch_size=4, prior_weight=0.5, seed=39)
        net = init_network(3, [4], [3, 3], 3, np.random.default_rng(40))
        calls = []
        original = network.logits

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(network, "logits", counted)
        net, cov, report = train(net, data, cfg, eval_data=held_out)
        assert calls == [0, 1, 2, 0, 1, 2] * cfg.epochs
        monkeypatch.setattr(network, "logits", original)
        last = report.records[-1]
        assert last.objective == spelled_out_objective(net, cov, data, cfg)
        losses, accs = network.fold_scores(net, data)
        for t in range(3):
            x, y = data.features[t], data.labels[t]
            assert last.train_accuracy[t] == task_accuracy(net, t, x, y)
            assert (losses[t], accs[t]) == (
                task_log_loss(net, t, x, y),
                task_accuracy(net, t, x, y),
            )


class TestExtractRelationship:
    def test_correlation_of_task_factor(self):
        rng = np.random.default_rng(37)
        net = init_network(4, [], [3], 3, rng)
        cov = CovarianceState.identity_for(net.stack)
        m = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
        feature, output, _ = cov.priors[0].factors
        cov.priors[0] = KronCovariance([feature, output, SpdFactor(m)])
        corr = extract_relationship(cov, "classifier")
        np.testing.assert_array_equal(np.diag(corr), np.ones(3))
        assert corr[0, 1] == pytest.approx(0.6 / np.sqrt(2.0), rel=1e-12)
        np.testing.assert_allclose(corr, corr.T)

    def test_unknown_layer_rejected(self):
        rng = np.random.default_rng(38)
        net = init_network(3, [], [2], 2, rng)
        cov = CovarianceState.identity_for(net.stack)
        with pytest.raises(ValueError):
            extract_relationship(cov, "nope")
