"""Network forward/backward against finite differences and dense priors."""

import copy
import json

import numpy as np
import pytest

from oracles import dense_cov
from relnet.network import (
    Gradients,
    MultiTaskNet,
    TaskLayerStack,
    accuracy,
    batch_gradients,
    forward,
    init_network,
    load_checkpoint,
    predict,
    prior_penalty,
    save_checkpoint,
    task_log_loss,
)
from relnet.serialize import InputError, load_json
from relnet.tensor_normal import KronCovariance


def rand_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def rand_priors(rng, stack):
    return [
        KronCovariance([rand_spd(rng, d) for d in w.shape]) for w in stack.weights
    ]


def numeric_grad(f, arr, h=1e-5):
    """Central finite differences of a scalar function in the entries of arr."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        hi = f()
        arr[idx] = orig - h
        lo = f()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
        it.iternext()
    return g


class TestForward:
    def test_two_class_logit_is_sigmoid(self):
        """Logits (z, 0) give class-0 probability 1/(1+exp(-z))."""
        net = init_network(1, [], [2], 1, np.random.default_rng(0))
        net.stack.weights[0][:, :, 0] = [[1.5, 0.0]]
        x = np.array([2.0])
        p = forward(net, 0, x)
        z = 1.5 * 2.0
        assert p[0] == pytest.approx(1.0 / (1.0 + np.exp(-z)), rel=1e-12)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(1)
        net = init_network(6, [4], [5, 3], 3, rng)
        x = rng.standard_normal((10, 6))
        for t in range(3):
            p = forward(net, t, x)
            assert np.all(p >= 0)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)

    def test_huge_logits_stay_finite(self):
        """Magnitude-1e3 logits must not overflow the softmax."""
        net = init_network(1, [], [2], 1, np.random.default_rng(2))
        net.stack.weights[0][:, :, 0] = [[1e3, -1e3]]
        p = forward(net, 0, np.array([1.0]))
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0)
        assert task_log_loss(net, 0, np.array([1.0]), 1) == pytest.approx(
            2e3, rel=1e-12
        )

    def test_task_and_shape_validation(self):
        net = init_network(4, [], [3], 2, np.random.default_rng(3))
        with pytest.raises(ValueError):
            forward(net, 2, np.zeros(4))
        with pytest.raises(ValueError):
            forward(net, 0, np.zeros(5))

    def test_predict_breaks_ties_low(self):
        net = init_network(2, [], [3], 1, np.random.default_rng(4))
        net.stack.weights[0][:] = 0.0
        assert predict(net, 0, np.array([1.0, 1.0])) == 0


class TestCrossEntropy:
    def test_probability_form(self):
        """Logits (0, ln 3) give probabilities (1/4, 3/4)."""
        net = init_network(1, [], [2], 1, np.random.default_rng(0))
        net.stack.weights[0][:, :, 0] = [[0.0, np.log(3.0)]]
        assert task_log_loss(net, 0, np.array([1.0]), 1) == pytest.approx(
            -np.log(0.75), rel=1e-14
        )

    def test_forms_agree(self):
        """The fused log-sum-exp loss is ``-ln`` of the label's softmax
        probability."""
        rng = np.random.default_rng(5)
        net = init_network(3, [], [4], 1, rng)
        x = rng.standard_normal(3)
        probs = forward(net, 0, x)
        for c in range(4):
            assert -np.log(probs[c]) == pytest.approx(
                task_log_loss(net, 0, x, c), rel=1e-10
            )

    def test_batch_loss_sums(self):
        rng = np.random.default_rng(6)
        net = init_network(5, [4], [3], 2, rng)
        x = rng.standard_normal((7, 5))
        y = rng.integers(0, 3, size=7)
        total = task_log_loss(net, 1, x, y)
        by_hand = sum(
            -np.log(forward(net, 1, x[i])[y[i]]) for i in range(7)
        )
        assert total == pytest.approx(by_hand, rel=1e-10)


def param_arrays(net):
    arrs = []
    for i, layer in enumerate(net.trunk):
        arrs.append((f"trunk{i}.weight", layer.weight))
        arrs.append((f"trunk{i}.bias", layer.bias))
    for l, lid in enumerate(net.stack.layer_ids):
        arrs.append((f"{lid}.weight", net.stack.weights[l]))
        arrs.append((f"{lid}.bias", net.stack.biases[l]))
    return arrs


def grads_by_name(net, grads: Gradients):
    out = {}
    for i in range(len(net.trunk)):
        out[f"trunk{i}.weight"] = grads.trunk_weights[i]
        out[f"trunk{i}.bias"] = grads.trunk_biases[i]
    for l, lid in enumerate(net.stack.layer_ids):
        out[f"{lid}.weight"] = grads.stack_weights[l]
        out[f"{lid}.bias"] = grads.stack_biases[l]
    return out


class TestBackward:
    def test_matches_finite_differences(self):
        """Analytic cross-entropy gradients agree with central differences
        for every trunk and stack parameter."""
        rng = np.random.default_rng(7)
        net = init_network(5, [4], [3, 3], 2, rng)
        x = rng.standard_normal(5)
        label = 2
        for task in (0, 1):
            analytic = grads_by_name(net, batch_gradients(net, [task], x, [label]))

            def loss():
                return task_log_loss(net, task, x, label)

            for name, arr in param_arrays(net):
                numeric = numeric_grad(loss, arr)
                np.testing.assert_allclose(
                    analytic[name], numeric, rtol=1e-6, atol=1e-8, err_msg=name
                )

    def test_other_task_slices_zero(self):
        rng = np.random.default_rng(8)
        net = init_network(4, [], [3, 2], 3, rng)
        g = batch_gradients(net, [1], rng.standard_normal(4), [0])
        for dw, db in zip(g.stack_weights, g.stack_biases):
            assert np.all(dw[:, :, 0] == 0) and np.all(dw[:, :, 2] == 0)
            assert np.all(db[0] == 0) and np.all(db[2] == 0)
            assert np.any(dw[:, :, 1] != 0)

    def test_zero_input_zero_bias_kills_trunk_gradient(self):
        """ReLU of zero pre-activations: trunk weight gradients vanish."""
        rng = np.random.default_rng(9)
        net = init_network(4, [3], [2], 1, rng)
        g = batch_gradients(net, [0], np.zeros(4), [0])
        assert np.all(g.trunk_weights[0] == 0)


class TestBatchGradients:
    @pytest.mark.parametrize(
        "trunk, stack, tasks",
        [
            ([4], [3, 3], [2, 0, 2, 2, 0]),  # interleaved, task 1 absent
            ([], [3, 3], [2, 0, 0, 2, 2]),  # no trunk
            ([4], [3, 3], [1]),  # batch of one
            ([4, 3], [3], [0, 2, 1, 0]),  # drn8: one task-specific layer
        ],
    )
    def test_matches_finite_differences(self, trunk, stack, tasks):
        """One pass over a mixed-task batch gives the gradient of the
        summed per-task losses, with zero slices for absent tasks."""
        rng = np.random.default_rng(len(tasks) + 10 * len(trunk))
        net = init_network(5, trunk, stack, 3, rng)
        for layer in net.trunk:
            layer.bias[:] = 0.1 * rng.standard_normal(layer.bias.shape)
        for b in net.stack.biases:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        tasks = np.array(tasks)
        x = rng.standard_normal((tasks.size, 5))
        labels = rng.integers(0, stack[-1], size=tasks.size)
        analytic = grads_by_name(net, batch_gradients(net, tasks, x, labels))

        def loss():
            return sum(
                task_log_loss(net, t, x[tasks == t], labels[tasks == t])
                for t in np.unique(tasks)
            )

        for name, arr in param_arrays(net):
            np.testing.assert_allclose(
                analytic[name], numeric_grad(loss, arr), rtol=1e-6, atol=1e-8,
                err_msg=name,
            )
        absent = np.setdiff1d(np.arange(net.num_tasks), tasks)
        for lid in net.stack.layer_ids:
            assert np.all(analytic[f"{lid}.weight"][:, :, absent] == 0)
            assert np.all(analytic[f"{lid}.bias"][absent] == 0)

    @pytest.mark.parametrize(
        "trunk, stack", [([4], [3, 2]), ([], [3, 2]), ([4, 3], [2])]
    )
    def test_rotated_basis_gives_rotated_gradients(self, trunk, stack):
        """On a net whose stack weights are rotated by ``rotate_stack``,
        ``batch_gradients`` given the same bases returns each stack
        weight gradient rotated, ``Q_in^T G_t Q_out``, and every bias and
        trunk gradient as in the unrotated net."""
        rng = np.random.default_rng(30 + len(trunk))
        net = init_network(5, trunk, stack, 3, rng)
        for b in net.stack.biases:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        tasks = np.array([2, 0, 2, 1, 0])
        x = rng.standard_normal((tasks.size, 5))
        labels = rng.integers(0, stack[-1], size=tasks.size)
        bases = [
            (orthogonal(rng, w.shape[0]), orthogonal(rng, w.shape[1]))
            for w in net.stack.weights
        ]
        want = batch_gradients(net, tasks, x, labels)
        net.rotate_stack(want.flat, bases)
        net.rotate_stack(net.params, bases)
        got = batch_gradients(net, tasks, x, labels, bases)
        scale = np.abs(want.flat).max()
        np.testing.assert_allclose(got.flat, want.flat, rtol=0, atol=1e-13 * scale)

    def test_backward_is_a_batch_of_one(self):
        """A single feature vector is a batch of one row."""
        rng = np.random.default_rng(21)
        net = init_network(4, [3], [3, 2], 2, rng)
        x = rng.standard_normal(4)
        single = grads_by_name(net, batch_gradients(net, [1], x, [0]))
        batch = grads_by_name(net, batch_gradients(net, [1], x[None], [0]))
        for name in single:
            np.testing.assert_array_equal(single[name], batch[name])

    def test_validation(self):
        rng = np.random.default_rng(22)
        net = init_network(4, [], [2], 2, rng)
        x = rng.standard_normal((2, 4))
        with pytest.raises(ValueError, match="one task and one label"):
            batch_gradients(net, [0], x, [0, 1])
        with pytest.raises(ValueError, match="task out of range"):
            batch_gradients(net, [0, 2], x, [0, 1])
        with pytest.raises(ValueError, match="label out of range"):
            batch_gradients(net, [0, 1], x, [0, 2])


class TestPrior:
    def test_identity_prior_is_weight_decay(self):
        """Identity factors: penalty is half the squared norm and the
        gradient is the weight tensor itself."""
        rng = np.random.default_rng(10)
        net = init_network(4, [], [3, 2], 2, rng)
        priors = [
            KronCovariance([np.eye(d) for d in w.shape])
            for w in net.stack.weights
        ]
        want = 0.5 * sum(float(np.sum(w * w)) for w in net.stack.weights)
        assert prior_penalty(net.stack, priors) == pytest.approx(want, rel=1e-12)
        for w, cov in zip(net.stack.weights, priors):
            for t in range(2):
                np.testing.assert_allclose(
                    cov.apply_inverse(w)[:, :, t],
                    w[:, :, t],
                    rtol=1e-12,
                )

    def test_penalty_matches_dense(self):
        rng = np.random.default_rng(11)
        net = init_network(5, [], [4, 3], 3, rng)
        priors = rand_priors(rng, net.stack)
        want = 0.0
        for w, cov in zip(net.stack.weights, priors):
            v = w.ravel()
            dense = dense_cov(cov)
            quad = v @ np.linalg.solve(dense, v)
            din, dout, _ = w.shape
            logdet_task = np.linalg.slogdet(cov.factors[2].matrix)[1]
            want += 0.5 * (quad - din * dout * logdet_task)
        assert prior_penalty(net.stack, priors) == pytest.approx(want, rel=1e-10)

    def test_gradient_matches_dense_and_finite_differences(self):
        rng = np.random.default_rng(12)
        net = init_network(4, [], [3, 2], 2, rng)
        priors = rand_priors(rng, net.stack)
        for w, cov in zip(net.stack.weights, priors):
            dense = dense_cov(cov)
            full_dense = np.linalg.solve(dense, w.ravel()).reshape(w.shape)
            full = cov.apply_inverse(w)
            np.testing.assert_allclose(full, full_dense, rtol=1e-10, atol=1e-12)

            numeric = numeric_grad(lambda: prior_penalty(net.stack, priors), w)
            np.testing.assert_allclose(full, numeric, rtol=1e-6, atol=1e-8)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        net = init_network(4, [], [3], 2, rng)
        bad = [KronCovariance([np.eye(4), np.eye(3), np.eye(5)])]
        with pytest.raises(ValueError):
            prior_penalty(net.stack, bad)


class TestCheckpoint:
    def test_roundtrip_preserves_behavior(self, tmp_path):
        rng = np.random.default_rng(15)
        net = init_network(6, [5], [4, 3], 2, rng)
        path = tmp_path / "model.json"
        save_checkpoint(net, path, task_names=["a", "b"])
        loaded, names = load_checkpoint(path)
        assert names == ["a", "b"]
        x = rng.standard_normal((5, 6))
        for t in range(2):
            np.testing.assert_array_equal(forward(net, t, x), forward(loaded, t, x))

    def test_bytes_stable(self, tmp_path):
        rng = np.random.default_rng(16)
        net = init_network(3, [], [2], 1, rng)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(net, p1)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 99}')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("section", ["trunk", "stack"])
    def test_hidden_activation_other_than_relu_rejected(self, tmp_path, section):
        """Hidden layers are ReLU: a checkpoint naming ``identity`` for a
        trunk or hidden stack layer raises an ``InputError`` naming it."""
        net = init_network(3, [2], [2, 2], 2, np.random.default_rng(17))
        path = tmp_path / "model.json"
        save_checkpoint(net, path)
        doc = load_json(path)
        layers = doc["trunk"] if section == "trunk" else doc["stack"]["layers"]
        layers[0]["activation"] = "identity"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="activation 'identity'") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)


class TestParameterBuffer:
    """Every layer array is a view of ``net.params``; the SGD step moves
    the layers only through that vector."""

    def make_net(self):
        return init_network(5, [4, 3], [3, 2], 2, np.random.default_rng(23))

    def assert_bound(self, net):
        arrays = [arr for _, arr in param_arrays(net)]
        assert all(np.shares_memory(arr, net.params) for arr in arrays)
        assert sum(arr.size for arr in arrays) == net.params.size
        trunk_size = sum(l.weight.size + l.bias.size for l in net.trunk)
        assert net.stack_start == trunk_size

    def test_init_binds_every_array(self):
        net = self.make_net()
        self.assert_bound(net)
        segments = net.segments(net.params)
        assert [name for name, _ in segments] == [
            "trunk layer 0 weights", "trunk layer 0 bias",
            "trunk layer 1 weights", "trunk layer 1 bias",
            "stack layer 'bottleneck' weights", "stack layer 'bottleneck' bias",
            "stack layer 'classifier' weights", "stack layer 'classifier' bias",
        ]
        for (_, view), (_, arr) in zip(segments, param_arrays(net)):
            assert view.shape == arr.shape and np.shares_memory(view, arr)

    def test_load_checkpoint_binds_every_array(self, tmp_path):
        save_checkpoint(self.make_net(), tmp_path / "model.json")
        self.assert_bound(load_checkpoint(tmp_path / "model.json")[0])

    def test_deepcopy_gets_its_own_buffer(self):
        net = self.make_net()
        dup = copy.deepcopy(net)
        self.assert_bound(dup)
        np.testing.assert_array_equal(dup.params, net.params)
        for arr in [dup.params] + [arr for _, arr in param_arrays(dup)]:
            assert not np.shares_memory(arr, net.params)

    def test_batch_gradients_are_views_of_flat(self):
        net = self.make_net()
        x = np.random.default_rng(24).standard_normal((3, 5))
        g = batch_gradients(net, [0, 1, 1], x, [0, 1, 0])
        assert g.flat.shape == net.params.shape
        arrays = g.trunk_weights + g.trunk_biases + g.stack_weights + g.stack_biases
        assert all(np.shares_memory(arr, g.flat) for arr in arrays)
        assert sum(arr.size for arr in arrays) == g.flat.size

    def test_rotate_stack_rotates_each_task_matrix_and_back(self):
        net = self.make_net()
        rng = np.random.default_rng(25)
        before = net.params.copy()
        old_w = [w.copy() for w in net.stack.weights]
        bases = [
            (orthogonal(rng, w.shape[0]), orthogonal(rng, w.shape[1]))
            for w in net.stack.weights
        ]
        net.rotate_stack(net.params, bases)
        self.assert_bound(net)
        for w, w0, (q_in, q_out) in zip(net.stack.weights, old_w, bases):
            for t in range(w.shape[2]):
                np.testing.assert_allclose(
                    w[:, :, t], q_in.T @ w0[:, :, t] @ q_out, rtol=0, atol=1e-14
                )
        untouched = np.ones(net.params.size, dtype=bool)
        for _, view in net.segments(untouched)[2 * len(net.trunk) :: 2]:
            view[...] = False
        np.testing.assert_array_equal(net.params[untouched], before[untouched])
        net.rotate_stack(net.params, bases, back=True)
        np.testing.assert_allclose(net.params, before, rtol=0, atol=1e-14)

    def test_first_nonfinite_names_the_segment(self):
        net = self.make_net()
        vec = np.zeros_like(net.params)
        assert net.first_nonfinite(vec) is None
        vec[net.stack_start - 1] = np.nan
        assert net.first_nonfinite(vec) == "trunk layer 1 bias"


class TestInit:
    def test_deterministic(self):
        a = init_network(5, [4], [3, 2], 2, np.random.default_rng(17))
        b = init_network(5, [4], [3, 2], 2, np.random.default_rng(17))
        for la, lb in zip(a.trunk, b.trunk):
            np.testing.assert_array_equal(la.weight, lb.weight)
        for wa, wb in zip(a.stack.weights, b.stack.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_validation(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            init_network(4, [], [], 2, rng)
        with pytest.raises(ValueError):
            TaskLayerStack(
                ["only"],
                [np.zeros((3, 2, 2))],
                [np.zeros((2, 2))],
                ["relu"],
            )

    def test_accuracy_counts(self):
        net = init_network(2, [], [2], 1, np.random.default_rng(19))
        net.stack.weights[0][:, :, 0] = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([[3.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
        assert accuracy(net, 0, x, np.array([0, 1, 1])) == pytest.approx(2 / 3)
