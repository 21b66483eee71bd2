"""Dataset ingestion, splitting and the synthetic generator."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relnet.data import (
    DatasetError,
    MultiTaskDataset,
    SplitError,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_manifest,
    sample_task_data,
    split,
    write_csv,
    write_manifest,
)
from relnet.data import _parse_csv_fast, _parse_csv_lines
from relnet.network import softmax
from relnet.serialize import ConfigError, InputError
from relnet.tensor_normal import KronCovariance, TensorNormal, sample


def toy_dataset(sizes=(10, 8), dim=3, num_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    feats = [rng.standard_normal((n, dim)) for n in sizes]
    labs = [rng.integers(0, num_classes, size=n) for n in sizes]
    names = [f"task{i}" for i in range(len(sizes))]
    return MultiTaskDataset(names, feats, labs, num_classes)


class TestDatasetValidation:
    def test_dim_mismatch(self):
        with pytest.raises(DatasetError):
            MultiTaskDataset(
                ["a", "b"],
                [np.zeros((3, 2)), np.zeros((3, 4))],
                [np.zeros(3, dtype=int)] * 2,
                2,
            )

    def test_label_range(self):
        with pytest.raises(DatasetError):
            MultiTaskDataset(
                ["a"], [np.zeros((2, 2))], [np.array([0, 5])], 3
            )

    def test_empty_task(self):
        with pytest.raises(DatasetError):
            MultiTaskDataset(["a"], [np.zeros((0, 2))], [np.zeros(0, dtype=int)], 2)

    def test_duplicate_names(self):
        with pytest.raises(DatasetError):
            MultiTaskDataset(
                ["a", "a"],
                [np.zeros((2, 2))] * 2,
                [np.zeros(2, dtype=int)] * 2,
                2,
            )


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        """write(load(f)) reproduces the numeric content exactly."""
        ds = toy_dataset(seed=1)
        paths = [tmp_path / f"{n}.csv" for n in ds.task_names]
        write_csv(ds, paths)
        loaded = load_csv(paths, ds.num_classes)
        for a, b in zip(loaded.features, ds.features):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.labels, ds.labels):
            np.testing.assert_array_equal(a, b)
        second = [tmp_path / f"again_{n}.csv" for n in ds.task_names]
        write_csv(loaded, second)
        for p1, p2 in zip(paths, second):
            assert p1.read_bytes() == p2.read_bytes()

    def test_nonnumeric_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(DatasetError, match=r"bad\.csv:2"):
            load_csv([path], 2)
        # The blank line keeps the row index apart from the line number.
        for value in ("nan", "inf", "-inf"):
            path.write_text(f"1.0,2.0,0\n\n1.0,{value},1\n3.0,4.0,1\n")
            with pytest.raises(DatasetError, match=r"bad\.csv:3: non-finite"):
                load_csv([path], 2)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(DatasetError, match=r"ragged\.csv:2"):
            load_csv([path], 2)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("1.0,7\n")
        with pytest.raises(DatasetError, match=r"label\.csv:1"):
            load_csv([path], 3)

    def test_unreadable_file_names_the_file(self, tmp_path):
        """A directory or a non-UTF-8 file is a DatasetError naming the
        path, not an OSError or UnicodeDecodeError."""
        (tmp_path / "folder.csv").mkdir()
        with pytest.raises(DatasetError, match=r"folder\.csv: "):
            load_csv([tmp_path / "folder.csv"], 2)
        # Bad bytes in the first read chunk, across its end (8192 bytes
        # here) and far beyond it, behind a two-byte character that
        # straddles the chunk boundary: the offset counts from the file's
        # start, as decoding the whole file reports it.
        path = tmp_path / "binary.csv"
        rows = b"1.0,0\n" * 1365
        for prefix in (b"1.0,0\n", rows + b"1\xc3\xa9", rows * 3):
            raw = prefix + b"\xff,1\n"
            path.write_bytes(raw)
            with pytest.raises(UnicodeDecodeError) as want:
                raw.decode("utf-8")
            at = f"binary\\.csv: not UTF-8 text at byte {want.value.start}$"
            with pytest.raises(DatasetError, match=at):
                load_csv([path], 2)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError):
            load_csv([path], 2)


# --------------------------------------------------------------------------
# the vectorized CSV pass against the line parser

# Any double as repr writes it, or a float32 in np.savetxt's "%.8g".
FEATURES = st.floats().map(repr) | st.floats(width=32).map(lambda v: "%.8g" % v)
# Fields one step away from valid: float labels, comment and quote
# characters, underscores, padding, overflow, non-ASCII digits, and
# fields that add or hide a column.
NEAR_MISS = st.sampled_from([
    "2.0", "1.5", "-0", "+1", "007", "1e5", ".5", "5.", "0x10", "Infinity",
    "nan", "-inf", "1e400", "-1e400", "#", "0#", "1#2", "0 # c", '"1"', "'1'", "1_0",
    "", " ", " 1 ", "\t2\t", "\x0c0", "0\x85", "1\u00a0", "\u0661",
    "1\u0662", "\x00", "\u2028", "99999999999999999999", "9223372036854775807",
    "-9223372036854775809", "1,", ",1", "1,2",
])
BLANK_LINES = st.sampled_from(["", " ", "\t", "\x0c", "\x85", "\u2028", "#", "# c"])


@st.composite
def near_miss_csv(draw):
    """A valid table of up to 4 features and labels in [0, 5), then up to
    three edits: a cell replaced by a near miss, a cell dropped or added,
    or a blank-looking or comment line inserted; joined by LF, CRLF or
    CR."""
    width = draw(st.integers(1, 4))
    rows = [
        [draw(FEATURES) for _ in range(width)] + [str(draw(st.integers(0, 4)))]
        for _ in range(draw(st.integers(1, 5)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, width)) % len(rows[r])
        edit = draw(st.sampled_from(["replace", "replace", "drop", "add", "line"]))
        if edit == "replace":
            # The label column, half of the time.
            rows[r][draw(st.sampled_from([c, -1]))] = draw(NEAR_MISS)
        elif edit == "drop" and len(rows[r]) > 1:
            del rows[r][c]
        elif edit == "add":
            rows[r].insert(c, draw(FEATURES | NEAR_MISS))
        elif edit == "line":
            rows.insert(r, [draw(BLANK_LINES)])
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(row) for row in rows]
    return (eol.join(lines) + draw(st.sampled_from(["", eol]))).encode("utf-8")


# Near-miss tables half of the time, any text or bytes otherwise.
CSV_BYTES = near_miss_csv() | (
    st.text().map(lambda t: t.encode("utf-8"))
    | st.text(alphabet="0123456789,.-+e_# \t\n\r").map(lambda t: t.encode("utf-8"))
    | st.binary(max_size=40)
)


def bits(parsed):
    """Features as their int64 bit patterns, and labels, for exact
    comparison (NaN == NaN, -0.0 != 0.0)."""
    x, y = parsed
    assert x.dtype == np.float64 and y.dtype == np.int64
    return x.view(np.int64).tolist(), y.tolist()


@settings(max_examples=400, deadline=None)
@given(CSV_BYTES, st.integers(2, 5))
@example(b"0.5,1\r\n1.5,0\r\n", 2)
@example(b"0.5,1\n1.5,2.0\n", 3)
@example(b"0.5,1\n1.5,0 # c\n", 2)
@example(b"0.5,1\n#\n1.5,0\n", 2)
@example(b'0.5,1\n"1.5",0\n', 2)
@example(b"0.5,1\n1_5,0\n", 2)
@example(b"0.5,1\n \t\n1.5,0\n", 2)
@example(b"0.5,1\n1e400,0\n", 2)
@example(b"0.5,nan,1\n1.5,0\n", 2)
@example(b"0.5,1\n1.5,99999999999999999999\n", 2)
@example("0.5,1\n1.5,\u0661\n".encode("utf-8"), 2)
def test_vectorized_pass_accepts_only_what_the_line_parser_accepts(raw, classes):
    """Either both parsers return bit-identical arrays, or the fast pass
    gives up and ``load_csv`` raises the line parser's message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "task.csv"
        path.write_bytes(raw)
        fast = _parse_csv_fast(path, classes)
        try:
            want = _parse_csv_lines(path, classes)
        except InputError as exc:
            assert fast is None
            with pytest.raises(DatasetError) as got:
                load_csv([path], classes)
            assert str(got.value) == str(exc)
            return
        if fast is not None:
            assert bits(fast) == bits(want)
        ds = load_csv([path], classes)
        assert bits((ds.features[0], ds.labels[0])) == bits(want)
        assert ds.pooled_features.flags.c_contiguous
        assert ds.pooled_labels.flags.c_contiguous


def test_vectorized_pass_parses_written_rows(tmp_path):
    """Rows as ``write_csv`` and ``np.savetxt`` write them take the
    vectorized pass, and give the line parser's arrays."""
    ds = toy_dataset(sizes=(7,), dim=4, num_classes=3, seed=8)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    write_csv(ds, paths[:1])
    table = np.column_stack([ds.features[0], ds.labels[0]])
    np.savetxt(paths[1], table, fmt=["%.8g"] * 4 + ["%d"], delimiter=",")
    for path in paths:
        fast = _parse_csv_fast(path, 3)
        assert fast is not None
        assert bits(fast) == bits(_parse_csv_lines(path, 3))


class TestManifest:
    def test_roundtrip(self, tmp_path):
        ds = toy_dataset(seed=2)
        manifest = write_manifest(ds, tmp_path / "data")
        loaded = load_manifest(manifest)
        assert loaded.task_names == ds.task_names
        assert loaded.num_classes == ds.num_classes
        for a, b in zip(loaded.features, ds.features):
            np.testing.assert_array_equal(a, b)

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"schema_version": 99}')
        with pytest.raises(ConfigError, match="schema_version must be 1, got 99"):
            load_manifest(path)


class TestSplit:
    def test_stratified_documented_counts(self):
        """Class counts (10, 10, 20) at fraction 0.1 give (1, 1, 2)."""
        labels = np.array([0] * 10 + [1] * 10 + [2] * 20)
        rng = np.random.default_rng(3)
        ds = MultiTaskDataset(
            ["t"], [rng.standard_normal((40, 2))], [labels], 3
        )
        train, test = split(ds, SplitSpec(0.1, stratified=True, seed=0))
        counts = np.bincount(train.labels[0], minlength=3)
        np.testing.assert_array_equal(counts, [1, 1, 2])
        assert test.task_sizes == (36,)

    def test_folds_partition_rows(self):
        ds = toy_dataset(sizes=(20, 14), seed=4)
        train, test = split(ds, SplitSpec(0.5, seed=1))
        for t in range(ds.num_tasks):
            merged = np.vstack([train.features[t], test.features[t]])
            assert merged.shape[0] == ds.task_sizes[t]
            want = {tuple(row) for row in ds.features[t]}
            got = {tuple(row) for row in merged}
            assert want == got

    def test_unstratified_too_few_samples(self):
        ds = toy_dataset(sizes=(5, 5), seed=5)
        with pytest.raises(SplitError):
            split(ds, SplitSpec(0.1))

    def test_stratified_missing_class(self):
        ds = MultiTaskDataset(
            ["t"], [np.zeros((4, 2))], [np.array([0, 0, 0, 0])], 2
        )
        with pytest.raises(SplitError, match="class 1"):
            split(ds, SplitSpec(0.5, stratified=True))

    def test_stratified_keeps_every_class(self):
        rng = np.random.default_rng(6)
        labels = rng.permutation(np.array([0] * 30 + [1] * 5 + [2] * 15))
        ds = MultiTaskDataset(
            ["t"], [rng.standard_normal((50, 2))], [labels], 3
        )
        train, _ = split(ds, SplitSpec(0.05, stratified=True, seed=2))
        assert set(np.unique(train.labels[0])) == {0, 1, 2}

    def test_deterministic(self):
        ds = toy_dataset(sizes=(12, 9), seed=7)
        a_train, a_test = split(ds, SplitSpec(0.4, seed=5))
        b_train, b_test = split(ds, SplitSpec(0.4, seed=5))
        for x, y in zip(a_train.features, b_train.features):
            np.testing.assert_array_equal(x, y)
        for x, y in zip(a_test.labels, b_test.labels):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize(
        "stratified, seed, train_rows, test_rows",
        [
            (False, 0, [[2, 4, 5, 7, 9, 11], [1, 3, 6, 7, 8]],
             [[0, 1, 3, 6, 8, 10], [0, 2, 4, 5]]),
            (False, 11, [[1, 2, 6, 8, 9, 10], [0, 5, 6, 7, 8]],
             [[0, 3, 4, 5, 7, 11], [1, 2, 3, 4]]),
            (True, 0, [[1, 5, 6, 7, 8, 9, 11], [1, 3, 4, 5, 6, 7]],
             [[0, 2, 3, 4, 10], [0, 2, 8]]),
            (True, 11, [[1, 3, 4, 6, 9, 10, 11], [0, 1, 2, 3, 4, 5]],
             [[0, 2, 5, 7, 8], [6, 7, 8]]),
        ],
    )
    def test_pinned_draws(self, stratified, seed, train_rows, test_rows):
        """The rows each fold gets, pinned: a change to how ``split``
        draws moves them, and with them every split run's results."""
        labels = [
            np.array([0, 1, 2, 0, 1, 2, 0, 0, 1, 2, 2, 0]),
            np.array([1, 0, 0, 1, 2, 2, 1, 0, 2]),
        ]
        # Each row's one feature is its index.
        feats = [np.arange(y.size, dtype=float)[:, None] for y in labels]
        ds = MultiTaskDataset(["a", "b"], feats, labels, 3)
        train, test = split(ds, SplitSpec(0.5, stratified=stratified, seed=seed))
        assert [x[:, 0].tolist() for x in train.features] == train_rows
        assert [x[:, 0].tolist() for x in test.features] == test_rows

    def test_fraction_bounds(self):
        with pytest.raises(SplitError):
            SplitSpec(0.0)
        with pytest.raises(SplitError):
            SplitSpec(1.0)


class TestSplitEmptyFold:
    def test_fraction_that_empties_test_fold_is_rejected(self):
        """Both folds must stay non-empty for every task."""
        rng = np.random.default_rng(0)
        ds = MultiTaskDataset(
            ["a"],
            [rng.standard_normal((9, 4))],
            [np.arange(9) % 3],
            num_classes=3,
        )
        with pytest.raises(SplitError, match="test fold is empty"):
            split(ds, SplitSpec(train_fraction=0.99, seed=0))


def assert_pooled(ds, features, labels):
    """``ds`` holds one C-contiguous float64 matrix and one int64 label
    vector, tasks in order; every task's arrays are views of their row
    blocks and hold ``features[t]`` and ``labels[t]``, bit for bit."""
    x, y = ds.pooled_features, ds.pooled_labels
    assert x.dtype == np.float64 and y.dtype == np.int64
    assert x.flags.c_contiguous and y.flags.c_contiguous
    assert len(ds.features) == len(ds.labels) == len(features) == len(labels)
    start = 0
    for xt, yt, want_x, want_y in zip(ds.features, ds.labels, features, labels):
        rows = slice(start, start + len(want_y))
        assert np.shares_memory(xt, x) and np.shares_memory(yt, y)
        assert np.array_equal(xt.view(np.int64), x[rows].view(np.int64))
        assert np.array_equal(yt, y[rows])
        assert np.array_equal(xt.view(np.int64), np.asarray(want_x).view(np.int64))
        assert np.array_equal(yt, want_y)
        start = rows.stop
    assert start == len(x) == len(y)


class TestPooled:
    def test_load_csv_pools_the_files(self, tmp_path):
        """Each loaded task is a view of the fold's pooled arrays and
        holds what the line parser reads from its file."""
        ds = toy_dataset(sizes=(7, 1, 5), dim=3, num_classes=3, seed=9)
        paths = [tmp_path / f"{name}.csv" for name in ds.task_names]
        write_csv(ds, paths)
        want = [_parse_csv_lines(path, 3) for path in paths]
        loaded = load_csv(paths, 3)
        assert_pooled(loaded, *zip(*want))

    def test_subset_and_split_take_the_rows_of_each_task(self):
        """``subset`` selects as numpy indexing of each task's rows does,
        repeated and negative indices included; ``split``'s folds hold
        the rows of the indices they kept."""
        ds = toy_dataset(sizes=(12, 9, 5), dim=2, num_classes=2, seed=10)
        # Each row's first feature is its index within its task.
        for x in ds.features:
            x[:, 0] = np.arange(len(x))
        idx = [[3, -1, 0, 3], [8, -9], [4]]
        sub = ds.subset(idx)
        assert_pooled(
            sub,
            [x[i] for x, i in zip(ds.features, idx)],
            [y[i] for y, i in zip(ds.labels, idx)],
        )
        for fold in split(ds, SplitSpec(0.5, seed=3)):
            kept = [x[:, 0].astype(int) for x in fold.features]
            assert_pooled(
                fold,
                [x[i] for x, i in zip(ds.features, kept)],
                [y[i] for y, i in zip(ds.labels, kept)],
            )

    def test_synthetic_draws_each_task_as_before(self):
        """The generator's pooled draws are the per-task draws of one
        stream: the weights, then each task's features and label
        uniforms, in task order."""
        spec = SyntheticSpec(3, 4, 3, 6, np.eye(3), noise_scale=0.5, seed=12)
        ds, w = generate_synthetic(spec)
        rng = np.random.default_rng(spec.seed)
        rng.standard_normal((4 * 3, 3))
        feats, labs = [], []
        for t in range(3):
            x = rng.standard_normal((6, 4))
            logits = x @ w[:, :, t]
            logits -= logits.max(axis=1, keepdims=True)
            cum = np.cumsum(softmax(logits / 0.5), axis=1)
            cum[:, -1] = 1.0
            feats.append(x)
            labs.append((cum > rng.random((6, 1))).argmax(axis=1))
        assert_pooled(ds, feats, labs)


def block_cov(pairs, size):
    cov = np.eye(size)
    for i, j, rho in pairs:
        cov[i, j] = cov[j, i] = rho
    return cov


class TestSynthetic:
    def test_shapes_and_determinism(self):
        spec = SyntheticSpec(3, 5, 4, 20, np.eye(3), seed=10)
        ds1, w1 = generate_synthetic(spec)
        ds2, w2 = generate_synthetic(spec)
        assert w1.shape == (5, 4, 3)
        assert ds1.task_sizes == (20, 20, 20)
        assert ds1.num_classes == 4
        np.testing.assert_array_equal(w1, w2)
        for a, b in zip(ds1.features, ds2.features):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(ds1.labels, ds2.labels):
            np.testing.assert_array_equal(a, b)

    def test_every_class_represented(self):
        """noise_scale 1, D=20, C=3, N=1000: each class gets at least 1%."""
        spec = SyntheticSpec(2, 20, 3, 1000, np.eye(2), noise_scale=1.0, seed=11)
        ds, _ = generate_synthetic(spec)
        for y in ds.labels:
            counts = np.bincount(y, minlength=3)
            assert counts.min() >= 10

    def test_tiny_noise_gives_argmax_labels(self):
        """Also at a subnormal scale, where the scaled logits overflow."""
        for noise_scale in (1e-9, 1e-310):
            spec = SyntheticSpec(2, 6, 3, 50, np.eye(2), noise_scale=noise_scale, seed=12)
            ds, w = generate_synthetic(spec)
            for t in range(2):
                want = np.argmax(ds.features[t] @ w[:, :, t], axis=1)
                np.testing.assert_array_equal(ds.labels[t], want)

    def test_related_tasks_have_similar_weights(self):
        """corr(A,B)=0.95, corr(.,C)=0: cos(W_A, W_B) beats both
        cross-pair cosines in at least 9 of 10 seeds."""
        hits = 0
        for seed in range(10):
            cov = block_cov([(0, 1, 0.95)], 3)
            _, w = generate_synthetic(SyntheticSpec(3, 8, 3, 1, cov, seed=seed))
            vecs = [w[:, :, t].ravel() for t in range(3)]

            def cos(a, b):
                return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

            ab = cos(vecs[0], vecs[1])
            if ab > cos(vecs[0], vecs[2]) and ab > cos(vecs[1], vecs[2]):
                hits += 1
        assert hits >= 9

    def test_coloring_is_the_three_factor_draw(self):
        """The weights, features and labels equal, bit for bit, those of
        a tensor-normal draw with identity feature and class factors
        fed to ``sample_task_data`` from the same generator; also for a
        task covariance asymmetric within the 1e-10 tolerance."""
        asym = block_cov([(0, 1, 0.5)], 2)
        asym[0, 1] += 1e-12
        specs = [
            SyntheticSpec(1, 3, 2, 5, [[2.0]], seed=1),
            SyntheticSpec(2, 4, 2, 7, asym, seed=2),
            SyntheticSpec(3, 1, 3, 4, block_cov([(0, 2, -0.3)], 3), seed=3),
            SyntheticSpec(4, 6, 5, 3, block_cov([(1, 3, 0.9)], 4), noise_scale=0.5),
        ]
        assert not np.array_equal(specs[1].task_covariance, asym.T)
        for spec in specs:
            dims = (spec.feature_dim, spec.num_classes, spec.num_tasks)
            rng = np.random.default_rng(spec.seed)
            factors = [np.eye(dims[0]), np.eye(dims[1]), spec.task_covariance]
            w = sample(TensorNormal(np.zeros(dims), KronCovariance(factors)), rng)
            want = sample_task_data(
                w, spec.samples_per_task, spec.noise_scale, rng,
                task_names=spec.task_names,
            )
            ds, weights = generate_synthetic(spec)
            assert np.array_equal(weights, w)
            for got, ref in zip(ds.features + ds.labels, want.features + want.labels):
                assert np.array_equal(got, ref)

    def test_generation_memory_follows_its_content(self):
        """At feature_dim 2048 the returned features and weights take
        0.98 MB; the allocation peak stays below 8 MB, so no (D, D)
        matrix is formed."""
        spec = SyntheticSpec(4, 2048, 5, 10, np.eye(4), seed=5)
        tracemalloc.start()
        try:
            generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_sample_task_data_reuses_weights(self):
        """Fresh draws from the same weights share the generating rule."""
        rng = np.random.default_rng(13)
        spec = SyntheticSpec(2, 4, 3, 10, np.eye(2), seed=14)
        _, w = generate_synthetic(spec)
        extra = sample_task_data(w, 5, 1.0, rng)
        assert extra.task_sizes == (5, 5)
        assert extra.num_classes == 3
        assert extra.feature_dim == 4

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(2, 4, 3, 10, np.eye(3))
        with pytest.raises(ValueError):
            SyntheticSpec(2, 4, 3, 10, np.eye(2), noise_scale=0.0)
