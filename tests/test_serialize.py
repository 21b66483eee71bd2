"""Whole-array JSON emission against the element-by-element list path,
and the whole-array ``list[float]`` rule against the per-item rule."""

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from relnet.network import init_network, load_checkpoint, save_checkpoint
from relnet.serialize import (
    ConfigError,
    check_type,
    dump_json,
    dumps_json,
    format_float,
    format_floats,
)

EDGE_VALUES = [
    -0.0,
    0.0,
    5e-324,
    2.2250738585072014e-308,
    1e308,
    -1e-300,
    3.0,
    0.1,
    1 / 3,
]

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


def assert_same_bytes(arr):
    """An array emits exactly the bytes of its ``tolist()``, on its own,
    inside a dict and inside a list."""
    as_list = arr.tolist()
    assert dumps_json(arr) == dumps_json(as_list)
    assert dumps_json({"a": arr, "b": 1}) == dumps_json({"a": as_list, "b": 1})
    assert dumps_json([arr, arr]) == dumps_json([as_list, as_list])


class TestWholeArrayEmission:
    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_edge_value_alone_and_in_rows(self, value):
        assert_same_bytes(np.array([value]))
        assert_same_bytes(np.array([1.5, value, -value]))
        assert_same_bytes(np.full((2, 3), value))

    @pytest.mark.parametrize(
        "shape", [(9,), (3, 3), (9, 1), (1, 9), (0,), (0, 3), (2, 0), (3, 1, 3)]
    )
    def test_shapes(self, shape):
        values = np.resize(np.array(EDGE_VALUES), shape)
        assert_same_bytes(values)

    def test_edge_values_render_as_format_float(self):
        arr = np.array(EDGE_VALUES)
        assert format_floats(arr) == ", ".join(format_float(v) for v in EDGE_VALUES)
        assert format_floats(arr, ",") == ",".join(format_float(v) for v in arr)
        assert dumps_json(arr) == (
            "[0, 0, 4.9406564584124654e-324, 2.2250738585072014e-308, 1e+308, "
            "-1e-300, 3, 0.10000000000000001, 0.33333333333333331]\n"
        )

    def test_non_contiguous_and_float32(self):
        base = np.arange(24, dtype=float).reshape(4, 6) / 7.0
        assert_same_bytes(base.T)
        assert_same_bytes(base[:, ::2])
        assert_same_bytes(base.astype(np.float32))

    def test_non_float_arrays_use_the_list_path(self):
        assert dumps_json(np.array([1, 2])) == dumps_json([1, 2])
        assert dumps_json(np.array([True, False])) == "[true, false]\n"
        assert dumps_json(np.array(0.5)) == "0.5\n"

    @pytest.mark.parametrize(
        "arr, first",
        [
            (np.array([1.0, np.inf, np.nan]), "inf"),
            (np.array([np.nan, np.inf]), "nan"),
            (np.array([0.0, -np.inf]), "-inf"),
            (np.array([[1.0, 2.0], [3.0, np.nan], [np.inf, 0.0]]), "nan"),
        ],
    )
    def test_non_finite_raises_format_float_error(self, arr, first):
        with pytest.raises(ValueError) as want:
            format_float(float(first))
        with pytest.raises(ValueError) as got:
            dumps_json({"x": arr})
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match=f"non-finite value {first}$"):
            dumps_json({"x": arr.tolist()})

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(max_dims=3, min_side=0), elements=FINITE))
    def test_property_matches_list_path(self, arr):
        assert_same_bytes(arr)

    @pytest.mark.parametrize("size", [4095, 4096, 4097, 2 * 4096 + 3])
    def test_rows_longer_than_a_chunk(self, size, tmp_path):
        """Rows are formatted a chunk at a time and ``dump_json`` streams
        them: the text is the value-by-value join, and the file holds the
        bytes of ``dumps_json``."""
        row = np.random.default_rng(size).standard_normal(size)
        row[::7] = -0.0
        assert format_floats(row, ",") == ",".join(format_float(v) for v in row)
        doc = {"w": row, "rows": row.reshape(-1, 1)[:5], "n": size}
        dump_json(doc, tmp_path / "doc.json")
        assert (tmp_path / "doc.json").read_text() == dumps_json(doc)
        assert_same_bytes(row)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_checkpoint_round_trip_is_byte_stable(data):
    """save -> load -> save reproduces the bytes for any finite weights."""
    net = init_network(3, [2], [2, 2], 2, np.random.default_rng(0))
    params = [p for layer in net.trunk for p in (layer.weight, layer.bias)]
    params += [*net.stack.weights, *net.stack.biases]
    for p in params:
        p[...] = data.draw(arrays(np.float64, p.shape, elements=FINITE))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        save_checkpoint(net, first, task_names=["a", "b"])
        loaded, names = load_checkpoint(first)
        save_checkpoint(loaded, second, task_names=names)
        assert first.read_bytes() == second.read_bytes()


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
BEYOND_DOUBLE = int(sys.float_info.max) * 2


@settings(max_examples=300, deadline=None)
@given(st.lists(JSON_SCALARS, max_size=6))
@example([1, 2.5, int(sys.float_info.max) + 1])
@example([0.5, BEYOND_DOUBLE])
@example([0.5, "2", True])
def test_float_list_follows_the_per_item_float_rule(items):
    """``list[float]`` accepts exactly the lists whose every item passes
    the ``float`` rule, gives the same values, and names the first bad
    item ``entry J``."""
    bad = [j for j, v in enumerate(items) if _rejects(v)]
    if bad:
        with pytest.raises(ConfigError, match=f"^x entry {bad[0]} must be a finite"):
            check_type(items, "list[float]", "x")
        return
    got = check_type(items, "list[float]", "x")
    assert got.dtype == np.float64 and got.shape == (len(items),)
    assert got.tolist() == [float(v) for v in items]


def _rejects(v) -> bool:
    """Whether the scalar ``float`` rule rejects ``v``."""
    try:
        check_type(v, "float", "x")
    except ConfigError:
        return True
    return False
