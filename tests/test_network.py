"""Network forward/backward against finite differences and dense priors."""

import base64
import copy
import functools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import backward, dense_cov, solve_kron, task_accuracy, task_log_loss
from relnet.network import (
    DenseLayer,
    Gradients,
    MultiTaskNet,
    TaskLayerStack,
    _row_argmax,
    batch_gradients,
    fold_scores,
    forward,
    init_network,
    load_checkpoint,
    prior_penalty,
    save_checkpoint,
)
from relnet.data import MultiTaskDataset
from relnet.serialize import InputError, load_json
from relnet.tensor_normal import KronCovariance


def rand_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


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
        x = np.array([[2.0]])
        p = forward(net, 0, x)
        z = 1.5 * 2.0
        assert p[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-z)), rel=1e-12)

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
        p = forward(net, 0, np.array([[1.0]]))
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

    def test_a_feature_vector_is_not_a_batch(self):
        """``forward`` and ``batch_gradients`` take a matrix of rows; a
        1-D feature vector is rejected, and a one-row batch gives one row
        of probabilities."""
        net = init_network(4, [], [3], 2, np.random.default_rng(3))
        with pytest.raises(ValueError, match=r"got shape \(4,\)"):
            forward(net, 0, np.zeros(4))
        with pytest.raises(ValueError, match=r"got shape \(4,\)"):
            batch_gradients(net, [0], np.zeros(4), [0])
        assert forward(net, 0, np.zeros((1, 4))).shape == (1, 3)

    def test_predict_breaks_ties_low(self):
        """A row whose logits all tie is scored as class 0."""
        net = init_network(2, [], [3], 1, np.random.default_rng(4))
        net.stack.weights[0][:] = 0.0
        x = np.ones((2, 2))
        accs = [fold_scores_of_task(net, 0, x, [c, c])[1][0] for c in range(3)]
        assert accs == [1.0, 0.0, 0.0]


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
        x = rng.standard_normal((1, 3))
        probs = forward(net, 0, x)[0]
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
            -np.log(forward(net, 1, x[i : i + 1])[0, y[i]]) for i in range(7)
        )
        assert total == pytest.approx(by_hand, rel=1e-10)


def fold_scores_of_task(net, task, x, labels):
    """:func:`fold_scores` of a fold whose task ``task`` holds ``x`` and
    ``labels``, and every other task one row of class 0."""
    features = [np.ones((1, net.input_dim))] * net.num_tasks
    all_labels = [[0]] * net.num_tasks
    features[task], all_labels[task] = x, labels
    pooled = np.concatenate(all_labels, axis=None)
    return fold_scores(
        net, SimpleNamespace(features=features, labels=all_labels, pooled_labels=pooled)
    )


@pytest.mark.parametrize("score", [task_log_loss, fold_scores_of_task])
@pytest.mark.parametrize("labels", [[-1, 0], [0, 3], [7, -1]])
def test_scoring_rejects_labels_out_of_range(score, labels):
    """Labels are checked as in ``batch_gradients``: ``-1`` is not class
    2, and ``3`` is not an ``IndexError``, on a 3-class net."""
    net = init_network(2, [], [3], 2, np.random.default_rng(7))
    x = np.ones((2, 2))
    with pytest.raises(ValueError, match=r"label out of range \[0, 3\)"):
        score(net, 1, x, labels)
    with pytest.raises(ValueError, match="one task and one label"):
        score(net, 1, x, [0])


def test_fold_scores_are_the_oracle_loss_and_accuracy():
    """On tasks of unequal sizes, one of them a single row, each task's
    entry of ``fold_scores`` is the oracles' summed cross-entropy and
    accuracy, bit for bit.  A label put out of range
    after the dataset was built is still rejected."""
    rng = np.random.default_rng(41)
    net = init_network(4, [5], [6, 3], 4, rng)
    sizes = (13, 1, 300, 2)
    ds = MultiTaskDataset(
        ["a", "b", "c", "d"],
        [rng.standard_normal((n, 4)) * 3 for n in sizes],
        [rng.integers(0, 3, size=n) for n in sizes],
        num_classes=3,
    )
    losses, accs = fold_scores(net, ds)
    assert len(losses) == len(accs) == 4
    for t, (x, y) in enumerate(zip(ds.features, ds.labels)):
        assert losses[t] == task_log_loss(net, t, x, y)
        assert accs[t] == task_accuracy(net, t, x, y)
    ds.labels[2][-1] = 3
    with pytest.raises(ValueError, match=r"label out of range \[0, 3\)"):
        fold_scores(net, ds)


# Logits drawn mostly from a few values, so that rows tie, and from the
# infinities and NaN.
TIED_LOGITS = st.one_of(
    st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf, np.nan]),
    st.floats(-3, 3),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda k: st.lists(
            st.lists(TIED_LOGITS, min_size=k, max_size=k), min_size=1, max_size=20
        )
    )
)
def test_row_argmax_is_numpy_argmax(rows):
    """The column-by-column argmax of ``fold_scores`` is
    ``np.argmax(z, axis=1)``: the lowest of tied columns, and the first
    NaN of a row that holds one."""
    z = np.array(rows)
    m = functools.reduce(np.maximum, z.T)
    got = _row_argmax(z, m)
    assert got.dtype == np.intp
    assert got.tolist() == np.argmax(z, axis=1).tolist()


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
        x = rng.standard_normal((1, 5))
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
        g = batch_gradients(net, [1], rng.standard_normal((1, 4)), [0])
        for dw, db in zip(g.stack_weights, g.stack_biases):
            assert np.all(dw[:, :, 0] == 0) and np.all(dw[:, :, 2] == 0)
            assert np.all(db[0] == 0) and np.all(db[2] == 0)
            assert np.any(dw[:, :, 1] != 0)

    def test_zero_input_zero_bias_kills_trunk_gradient(self):
        """ReLU of zero pre-activations: trunk weight gradients vanish."""
        rng = np.random.default_rng(9)
        net = init_network(4, [3], [2], 1, rng)
        g = batch_gradients(net, [0], np.zeros((1, 4)), [0])
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

    @settings(max_examples=60, deadline=None)
    @given(
        trunk=st.lists(st.integers(1, 4), max_size=2),
        stack=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        num_tasks=st.integers(1, 5),
        rows=st.integers(1, 9),
        one_task=st.booleans(),
        draw=st.data(),
    )
    def test_batch_is_the_sum_of_its_rows(
        self, trunk, stack, num_tasks, rows, one_task, draw
    ):
        """Property: for any trunk depth 0-2, 1-3 stack layers, 1-5 tasks
        and 1-9 rows, mixed or all of one task, a batch's gradients are
        the sum of its rows' ``oracles.backward`` gradients to 1e-12; the
        stack weight and bias slices of every task absent from the batch
        are exactly zero."""
        task = st.integers(0, num_tasks - 1)
        if one_task:
            tasks = np.full(rows, draw.draw(task))
        else:
            tasks = np.array(draw.draw(st.lists(task, min_size=rows, max_size=rows)))
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
        net = init_network(3, trunk, stack, num_tasks, rng)
        for b in [layer.bias for layer in net.trunk] + net.stack.biases:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        x = rng.standard_normal((rows, 3))
        labels = rng.integers(0, stack[-1], size=rows)
        want = sum(backward(net, t, xi, y).flat for t, xi, y in zip(tasks, x, labels))
        got = batch_gradients(net, tasks, x, labels)
        scale = max(1.0, np.abs(want).max())
        np.testing.assert_allclose(got.flat, want, rtol=0, atol=1e-12 * scale)
        absent = np.setdiff1d(np.arange(num_tasks), tasks)
        for dw, db in zip(got.stack_weights, got.stack_biases):
            assert np.all(dw[:, :, absent] == 0) and np.all(db[absent] == 0)

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
                    solve_kron(cov, w)[:, :, t],
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
        """The dense ``Sigma^-1 vec(W)`` is the penalty's gradient."""
        rng = np.random.default_rng(12)
        net = init_network(4, [], [3, 2], 2, rng)
        priors = rand_priors(rng, net.stack)
        for w, cov in zip(net.stack.weights, priors):
            full = solve_kron(cov, w)
            numeric = numeric_grad(lambda: prior_penalty(net.stack, priors), w)
            np.testing.assert_allclose(full, numeric, rtol=1e-6, atol=1e-8)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        net = init_network(4, [], [3], 2, rng)
        bad = [KronCovariance([np.eye(4), np.eye(3), np.eye(5)])]
        with pytest.raises(ValueError):
            prior_penalty(net.stack, bad)


V1_TEXT = """\
{
  "schema_version": 1,
  "input_dim": 1,
  "num_classes": 2,
  "num_tasks": 2,
  "task_names": ["a", "b"],
  "trunk": [
    {
      "in_dim": 1,
      "out_dim": 2,
      "activation": "relu",
      "weight": [1, -2],
      "bias": [0, 3]
    }
  ],
  "stack": {
    "layer_ids": ["bottleneck", "classifier"],
    "layers": [
      {
        "id": "bottleneck",
        "num_tasks": 2,
        "in_dim": 2,
        "out_dim": 1,
        "activation": "relu",
        "weight": [0, 1, 2, 3],
        "bias": [1, 2]
      },
      {
        "id": "classifier",
        "num_tasks": 2,
        "in_dim": 1,
        "out_dim": 2,
        "activation": "softmax",
        "weight": [-2, -1, 0, 1],
        "bias": [0, 1, -1, 0]
      }
    ]
  }
}
"""

V2_TEXT = """\
{
  "schema_version": 2,
  "input_dim": 1,
  "num_classes": 2,
  "num_tasks": 2,
  "task_names": ["a", "b"],
  "trunk": [
    {
      "in_dim": 1,
      "out_dim": 2,
      "activation": "relu",
      "weight": {"dtype": "<f8", "shape": [1, 2], "base64": "AAAAAAAA8D8AAAAAAAAAwA=="},
      "bias": {"dtype": "<f8", "shape": [2], "base64": "AAAAAAAAAAAAAAAAAAAIQA=="}
    }
  ],
  "stack": {
    "layer_ids": ["bottleneck", "classifier"],
    "layers": [
      {
        "id": "bottleneck",
        "num_tasks": 2,
        "in_dim": 2,
        "out_dim": 1,
        "activation": "relu",
        "weight": {"dtype": "<f8", "shape": [2, 1, 2], "base64": "AAAAAAAAAAAAAAAAAADwPwAAAAAAAABAAAAAAAAACEA="},
        "bias": {"dtype": "<f8", "shape": [2, 1], "base64": "AAAAAAAA8D8AAAAAAAAAQA=="}
      },
      {
        "id": "classifier",
        "num_tasks": 2,
        "in_dim": 1,
        "out_dim": 2,
        "activation": "softmax",
        "weight": {"dtype": "<f8", "shape": [1, 2, 2], "base64": "AAAAAAAAAMAAAAAAAADwvwAAAAAAAAAAAAAAAAAA8D8="},
        "bias": {"dtype": "<f8", "shape": [2, 2], "base64": "AAAAAAAAAAAAAAAAAADwPwAAAAAAAPC/AAAAAAAAAAA="}
      }
    ]
  }
}
"""


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

    def fixed_net(self):
        stack = TaskLayerStack(
            ["bottleneck", "classifier"],
            [np.arange(4.0).reshape(2, 1, 2), np.arange(4.0).reshape(1, 2, 2) - 2],
            [[[1.0], [2.0]], [[0.0, 1.0], [-1.0, 0.0]]],
        )
        return MultiTaskNet([DenseLayer([[1.0, -2.0]], [0.0, 3.0])], stack)

    def test_v1_bytes(self, tmp_path):
        """The version-1 text of the fixed net, each array a flat
        row-major list, loads into that net."""
        path = tmp_path / "model.json"
        path.write_text(V1_TEXT)
        loaded, names = load_checkpoint(path)
        assert names == ["a", "b"]
        want = param_arrays(self.fixed_net())
        for (_, got), (_, arr) in zip(param_arrays(loaded), want):
            assert got.shape == arr.shape and got.tolist() == arr.tolist()

    def test_v2_bytes(self, tmp_path):
        """The checkpoint text of the fixed net: field order, ``relu``
        for trunk and hidden stack layers, ``softmax`` for the last, and
        each array an object of its own shape holding its little-endian
        float64 bytes in base64."""
        path = tmp_path / "model.json"
        save_checkpoint(self.fixed_net(), path, task_names=["a", "b"])
        assert path.read_text() == V2_TEXT
        weight = load_json(path)["trunk"][0]["weight"]
        want = np.array([1.0, -2.0], dtype="<f8").tobytes()
        assert base64.b64decode(weight["base64"]) == want

    def test_load_gives_back_the_saved_bits(self, tmp_path):
        """Every parameter comes back bit for bit, ``-0.0`` and
        subnormals included."""
        net = init_network(6, [5], [4, 3], 2, np.random.default_rng(18))
        net.params[::7] = -0.0
        net.params[1::7] = 5e-324 * np.arange(1, net.params[1::7].size + 1)
        path = tmp_path / "model.json"
        save_checkpoint(net, path)
        assert load_checkpoint(path)[0].params.tobytes() == net.params.tobytes()

    def test_non_finite_parameter_writes_no_file(self, tmp_path):
        net = init_network(3, [2], [2, 2], 2, np.random.default_rng(19))
        net.stack.weights[1][0, 1, 1] = np.inf
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="non-finite value inf"):
            save_checkpoint(net, path)
        assert not path.exists()

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 99}')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [True, 1.0, 2.0, "2", 3, None])
    def test_schema_version_is_the_integer_1_or_2(self, tmp_path, version):
        path = tmp_path / "model.json"
        save_checkpoint(init_network(3, [], [2], 1, np.random.default_rng(20)), path)
        doc = load_json(path)
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="schema_version must be 1 or 2, got "):
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
        with pytest.raises(InputError, match="activation must be \"relu\", got 'identity'") as exc:
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

    def test_accuracy_counts(self):
        net = init_network(2, [], [2], 1, np.random.default_rng(19))
        net.stack.weights[0][:, :, 0] = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([[3.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
        accs = fold_scores_of_task(net, 0, x, np.array([0, 1, 1]))[1]
        assert accs == (pytest.approx(2 / 3),)
