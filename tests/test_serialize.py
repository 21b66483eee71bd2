"""Whole-array JSON emission against the element-by-element list path,
the whole-array ``list[float]`` rule against the per-item rule, the
matrix rule on lists and array objects, and the binary array object
against its bytes."""

import base64
import json
import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import array_object
from relnet import serialize
from relnet.network import init_network, load_checkpoint, save_checkpoint
from relnet.serialize import (
    BinaryArray,
    ConfigError,
    InputError,
    _standard_base64,
    check_task_names,
    check_type,
    dump_json,
    dumps_json,
    format_float,
    format_floats,
    load_json,
    read_json_object,
    read_object,
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
        """Rows of more than 4096 values, formatted by one join each: the
        text is the value-by-value join, also for ``-0.0``, subnormals
        and values near the double range, and the file written by
        ``dump_json`` holds the bytes of ``dumps_json``."""
        rng = np.random.default_rng(size)
        row = rng.standard_normal(size)
        row[::7] = -0.0
        row[1::7] = 5e-324 * rng.integers(1, 2**40, row[1::7].size)
        row[2::7] = 1.7e308
        row[3::7] = -1.7e308
        for sep in (",", ", "):
            assert format_floats(row, sep) == sep.join(format_float(v) for v in row)
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


def decoded(arr, where="w.weight"):
    """``arr`` written as a :class:`BinaryArray` and read back."""
    return check_type(json.loads(dumps_json(BinaryArray(arr))), "list[float]", where)


class TestBinaryArray:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(max_dims=3, min_side=0), elements=FINITE))
    @example(np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308]))
    @example(np.array([[1.7976931348623157e308, -0.0]]))
    def test_property_decode_of_encode_is_bit_identical(self, arr):
        """Any finite float64 array, ``-0.0`` and subnormals included,
        comes back with its shape and its exact bits, as a writable
        native float64 array; the object is one line."""
        got = decoded(arr)
        assert got.shape == arr.shape and got.dtype == np.float64
        assert got.tobytes() == arr.tobytes()
        assert got.flags.writeable
        assert "\n" not in BinaryArray(arr).json()

    def test_layout(self):
        """Little-endian float64, row-major, standard base64, one line."""
        arr = np.array([[1.0, -2.0, 0.5], [-0.0, 3.0, 4.0]])
        want = array_object(arr)["base64"]
        assert dumps_json({"w": BinaryArray(arr)}) == (
            '{\n  "w": {"dtype": "<f8", "shape": [2, 3], "base64": "%s"}\n}\n' % want
        )
        assert BinaryArray(arr.T).json() == BinaryArray(arr.T.copy()).json()
        assert BinaryArray(arr.astype(np.float32)).json() == BinaryArray(arr).json()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_format_float_error(self, bad):
        with pytest.raises(ValueError) as want:
            format_float(bad)
        with pytest.raises(ValueError) as got:
            BinaryArray(np.array([[0.0, 1.0], [bad, np.nan]]))
        assert str(got.value) == str(want.value)

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(np.float64, st.integers(1, 12), elements=FINITE),
        st.sampled_from(["truncate", "padding", "alphabet", "nan"]),
        st.data(),
    )
    def test_property_bad_payload_names_where(self, arr, kind, data):
        """A truncated, wrongly padded, non-alphabet or NaN-carrying
        payload raises ``ConfigError`` naming the field."""
        obj = array_object(arr)
        text = obj["base64"]
        if kind == "truncate":
            obj["base64"] = text[: data.draw(st.integers(0, len(text) - 1))]
        elif kind == "padding":
            stripped = text.rstrip("=")
            pads = [k for k in range(4) if k != len(text) - len(stripped)]
            obj["base64"] = stripped + "=" * data.draw(st.sampled_from(pads))
        elif kind == "alphabet":
            at = data.draw(st.integers(0, len(text)))
            char = data.draw(st.sampled_from(list("-_.*!~ \n\t\x00é")))
            obj["base64"] = text[:at] + char + text[at:]
        else:
            j = data.draw(st.integers(0, arr.size - 1))
            bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, -np.nan]))
            arr = arr.copy()
            arr[j] = bad
            obj = array_object(arr)
        with pytest.raises(ConfigError, match=r"^w\.weight[ .]") as exc:
            check_type(obj, "list[float]", "w.weight")
        if kind == "nan":
            assert str(exc.value).startswith(f"w.weight entry {j} must be a finite")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"dtype": "<f4"}, 'w.dtype must be "<f8", got \'<f4\''),
            ({"dtype": ">f8"}, 'w.dtype must be "<f8"'),
            ({"shape": [2, -3]}, "w.shape[1] must be at least 0, got -3"),
            ({"shape": [2, 3.0]}, "w.shape[1] must be an integer"),
            ({"shape": [True, 6]}, "w.shape[0] must be an integer"),
            ({"shape": 6}, "w.shape must be a list"),
            ({"shape": [7]}, "w.base64 holds 48 bytes, but shape [7] needs 56"),
            ({"shape": [0, 10**30]}, "w.base64 holds 48 bytes, but shape"),
            ({"base64": 5}, "w.base64 must be a string"),
            ({"base64": "AAAAAAAAAAB="}, "w.base64 is not base64: not the standard"),
            ({"extra": 1}, "w: unknown keys ['extra']"),
        ],
    )
    def test_malformed_object_names_the_key(self, change, message):
        obj = {**array_object(np.arange(6.0).reshape(2, 3)), **change}
        with pytest.raises(ConfigError) as exc:
            check_type(obj, "list[float]", "w")
        assert str(exc.value).startswith(message)

    def test_empty_shapes_and_a_shape_beyond_numpy(self):
        for shape in [(0, 3), (), (2, 0, 1)]:
            got = check_type(array_object(np.zeros(shape)), "list[float]", "w")
            assert got.shape == shape
        obj = {"dtype": "<f8", "shape": [0, 10**30], "base64": ""}
        with pytest.raises(ConfigError, match=r"^w\.shape \[0, 10+\]: "):
            check_type(obj, "list[float]", "w")

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(np.float64, st.integers(0, 12), elements=FINITE),
        st.sampled_from(["none", "truncate", "pad", "middle", "alphabet"]),
        st.sampled_from([4, 8, 12]),
        st.data(),
    )
    def test_property_blocks_decode_as_the_whole_text(self, arr, kind, chunk, data):
        """Decoded a few quanta at a time, a payload gives the bits or the
        error message that one block over the whole text gives, padding
        at a block's end included."""
        text, draw = array_object(arr)["base64"], data.draw
        if kind == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        elif kind == "pad":
            text = text.rstrip("=") + "=" * draw(st.integers(0, 3))
        elif kind == "middle":
            at = draw(st.integers(0, len(text) // 4)) * 4
            text = text[: at - 1] + "=" + text[at:] if at else "=" + text[1:]
        elif kind == "alphabet":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(list("-_ \né"))) + text[at:]
        obj = {"dtype": "<f8", "shape": [arr.size], "base64": text}

        def outcome():
            try:
                return check_type(obj, "list[float]", "w").tobytes()
            except ConfigError as exc:
                return str(exc)

        whole = outcome()
        with mock.patch.object(serialize, "_QUANTA", chunk):
            assert outcome() == whole

    @settings(max_examples=500, deadline=None)
    @given(
        st.binary(max_size=10),
        st.sampled_from(["none", "pad", "unpad", "bits", "middle"]),
        st.data(),
    )
    def test_property_spelling_check_is_the_full_re_encode(self, raw, kind, data):
        """The tail-only spelling check takes exactly the payloads that
        the strict decoder takes and that re-encoding all their bytes
        gives back: excess or missing padding, unused bits set in the
        last quantum and padding inside the text included."""
        text, draw = base64.b64encode(raw).decode("ascii"), data.draw
        if kind == "pad":
            text += "=" * draw(st.integers(1, 4))
        elif kind == "unpad":
            text = text[: len(text) - draw(st.integers(1, 2))] if text else text
        elif kind == "bits" and text:
            last = text.rstrip("=")
            digit = BASE64_DIGITS.index(last[-1]) ^ draw(st.integers(1, 63))
            text = last[:-1] + BASE64_DIGITS[digit] + text[len(last) :]
        elif kind == "middle":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + "=" * draw(st.integers(1, 2)) + text[at:]
        try:
            got = base64.b64decode(text, validate=True)
        except ValueError:
            return
        assert _standard_base64(text, got) == (base64.b64encode(got) == text.encode())


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
BEYOND_DOUBLE = int(sys.float_info.max) * 2
BASE64_DIGITS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


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


# A matrix without rows is drawn as (0, 0): its list form, ``[]``, has
# no width.
MATRICES = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda shape: arrays(np.float64, shape if shape[0] else (0, 0), elements=FINITE)
)


@settings(max_examples=200, deadline=None)
@given(MATRICES)
@example(np.array([[-0.0, 5e-324], [-5e-324, 2.2250738585072009e-308]]))
@example(np.zeros((0, 0)))
@example(np.zeros((3, 0)))
def test_matrix_reads_alike_from_lists_and_an_array_object(arr):
    """Any finite matrix, ``-0.0``, subnormals and no rows included, is
    read bit for bit from its JSON list form and from its array object,
    as one C-contiguous, writable 2-D float64 array."""
    lists = json.loads(json.dumps(arr.tolist()))
    for value in (lists, array_object(arr)):
        got = check_type(value, "list[list[float]]", "m")
        assert got.shape == arr.shape and got.dtype == np.float64
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == arr.tobytes()


@pytest.mark.parametrize(
    "value, message",
    [
        ([[1.0, 2.0], [3.0]], "m[1] has 1 entries, m[0] has 2"),
        ([[1.0], [2.0, 3.0], [4.0]], "m[1] has 2 entries, m[0] has 1"),
        ([[], [1.0]], "m[1] has 1 entries, m[0] has 0"),
        ([[1.0, 2.0], {"a": 1}], "m[1] must be a list, got {'a': 1}"),
        ([[1.0], array_object([2.0])], "m[1] must be a list, got {"),
        ([5, [1.0]], "m[0] must be a list, got 5"),
        ([[1.0, 2.0], [3.0, "4"]], "m[1] entry 1 must be a finite number, got '4'"),
        # A bad entry ahead of a ragged row is named first.
        ([[1.0, True], [3.0]], "m[0] entry 1 must be a finite number, got True"),
        ([[0.5, float("nan")]], "m[0] entry 1 must be a finite number, got nan"),
        ([[0.5, 10**400]], "m[0] entry 1 must be a finite number, got 1000"),
        ("x", "m must be a list, got 'x'"),
        (array_object([1.0, 2.0]), "m must have 2 dims, got shape [2]"),
        (array_object(np.zeros((1, 2, 1))), "m must have 2 dims, got shape [1, 2, 1]"),
        (array_object([[1.0, np.inf]]), "m entry 1 must be a finite number, got inf"),
    ],
)
def test_matrix_names_the_bad_row_or_entry(value, message):
    with pytest.raises(ConfigError) as exc:
        check_type(value, "list[list[float]]", "m")
    assert str(exc.value).startswith(message)


def test_ragged_row_of_a_file_names_the_file_once():
    """Under a ``<file>: <key>`` name the file is given once, ahead of
    the ragged row, and row 0 is named by its key path."""
    with pytest.raises(ConfigError) as exc:
        check_type([[1.0, 2.0], [3.0]], "list[list[float]]", "a.json: m")
    assert str(exc.value) == "a.json: m[1] has 1 entries, m[0] has 2"


def _rejects(v) -> bool:
    """Whether the scalar ``float`` rule rejects ``v``."""
    try:
        check_type(v, "float", "x")
    except ConfigError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=4))
@example("a\nb")
@example("a\rb")
@example("\x00")
@example("\x1f")
@example("\x7f")
@example("a,b")
@example(" ")
@example("\x80")
def test_task_name_rule_rejects_commas_and_control_characters(name):
    """A task name passes exactly when it is non-empty and holds no
    comma and no character below U+0020 or equal to U+007F: such a
    character would split or garble a ``report.csv`` line."""
    ok = bool(name) and all(c != "," and " " <= c != "\x7f" for c in name)
    if ok:
        check_task_names([name])
    else:
        with pytest.raises(ValueError, match="^bad task name"):
            check_task_names([name])


# --------------------------------------------------------------------------
# read_json_object against json.loads followed by read_object


class Raw(str):
    """A JSON token written as it is, such as ``1e400``."""


class Pairs(list):
    """A JSON object as its ``(key, value)`` pairs, so a key may repeat."""


NUMBERS = st.one_of(
    FINITE,
    st.integers(-(10**20), 10**20),
    st.sampled_from([Raw("-0"), Raw("1E2"), Raw("1e400"), Raw("-1e400"), 10**400]),
)
# Items that break the float rule inside a row.
NOT_FLOATS = st.sampled_from(
    ["4", True, None, float("nan"), float("inf"), [1.0], Pairs([("a", 1)])]
)
ROW_ITEMS = st.one_of(NUMBERS, NUMBERS, NUMBERS, NOT_FLOATS)
# What stands where a row should: rarely not a list at all.
ROW_ERRORS = st.sampled_from([5, "x", None, Pairs([("a", 1)])])


@st.composite
def matrix_values(draw):
    """A ``list[list[float]]`` value: a list of rows, mostly of one width,
    or an array object, or another JSON value."""
    kind = draw(st.sampled_from(["rows", "rows", "rows", "object", "other"]))
    if kind == "object":
        shape = draw(st.sampled_from([(2, 3), (0, 0), (3,), (1, 1)]))
        value = array_object(np.arange(math.prod(shape), dtype=float).reshape(shape))
        if draw(st.booleans()):
            value["base64"] = draw(st.sampled_from(["", "AAAA", "x"]))
        return Pairs(value.items())
    if kind == "other":
        return draw(st.sampled_from(["x", 1.5, None, Pairs([])]))
    return draw(row_lists())


@st.composite
def row_lists(draw):
    """A list of rows of numbers, mostly of one width, some of them
    holding an item that is not a finite number, or not a list."""
    width = draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 15)) == 0:
            rows.append(draw(ROW_ERRORS))
            continue
        size = width + draw(st.sampled_from([0] * 8 + [-1, 1]))
        items = NUMBERS if draw(st.integers(0, 3)) else ROW_ITEMS
        rows.append(draw(st.lists(items, min_size=max(size, 0), max_size=max(size, 0))))
    return rows


def first_fault(rows) -> str | None:
    """The matrix rule spelled out: the first row that is not a list or
    not of row 0's length, or the first entry that breaks the float
    rule, whichever comes first in row order."""
    for i, row in enumerate(rows):
        if type(row) is not list:
            return f"m[{i}] must be a list, got "
        if len(row) != len(rows[0]):
            return f"m[{i}] has {len(row)} entries, m[0] has {len(rows[0])}"
        for j, v in enumerate(row):
            if _rejects(v):
                return f"m[{i}] entry {j} must be a finite number, got "
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matrix_rule_reads_rows_in_order(data):
    """Read one row at a time, a list of rows gives the array of its
    numbers, or names its first fault in row order."""
    rows = json.loads(render(data.draw, data.draw(row_lists())))
    fault = first_fault(rows)
    if fault is None:
        got = check_type(rows, "list[list[float]]", "m")
        want = np.array(rows, dtype=float).reshape(len(rows), -1 if rows else 0)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return
    with pytest.raises(ConfigError) as exc:
        check_type(rows, "list[list[float]]", "m")
    assert str(exc.value).startswith(fault)


# Field annotations of the documents drawn below, and values for each
# key: mostly of the key's type.
REQUIRED = {"dims": "list[count]", "samples": "list[list[float]]"}
OPTIONAL = {"w": "list[float]", "note": "str | None", "mode": ("a", 1)}
OTHER_VALUES = st.one_of(
    st.lists(st.integers(-1, 4), max_size=3),
    st.sampled_from(["a", 1, None, True, 2.5, "é "]),
    st.lists(NUMBERS, max_size=3),
)
FIELD_VALUES = {
    "dims": st.lists(st.integers(1, 4), max_size=3),
    "samples": matrix_values(),
    "w": st.lists(NUMBERS, max_size=3),
    "note": st.one_of(st.text(max_size=3), st.none()),
    "mode": st.sampled_from(["a", 1]),
    "other": OTHER_VALUES,
}


@st.composite
def documents(draw):
    """A top-level object: mostly the required keys and some others, in
    any order, some repeated or unknown, rarely with a value of another
    type; or, rarely, another JSON value."""
    if draw(st.integers(0, 20)) == 0:
        return draw(st.sampled_from([[1, 2], "x", 3, None, [[1.0]]]))
    keys = draw(st.sampled_from([["dims", "samples"]] * 4 + [[]]))
    keys += draw(st.lists(st.sampled_from(sorted(FIELD_VALUES)), max_size=3))
    return Pairs(
        (key, draw(OTHER_VALUES if draw(st.integers(0, 9)) == 0 else FIELD_VALUES[key]))
        for key in draw(st.permutations(keys))
    )


BLANKS = st.sampled_from(["", "", "", " ", "\n", "\t", "\r\n ", " \t"])


def render(draw, value) -> str:
    """``value`` as JSON text with blanks drawn between its tokens."""
    def gap(text):
        return draw(BLANKS) + text + draw(BLANKS)

    if isinstance(value, Raw):
        return value
    if isinstance(value, Pairs):
        items = [gap(json.dumps(k)) + ":" + gap(render(draw, v)) for k, v in value]
        return "{" + (",".join(items) if items else draw(BLANKS)) + "}"
    if isinstance(value, list):
        items = [gap(render(draw, v)) for v in value]
        return "[" + (",".join(items) if items else draw(BLANKS)) + "]"
    return json.dumps(value, ensure_ascii=draw(st.booleans()))


@st.composite
def document_texts(draw):
    """The text of a drawn document, valid or with one fault: a character
    inserted, dropped or cut off anywhere, or a fault after the last
    value, behind any bad row of the matrix."""
    text = draw(BLANKS) + render(draw, draw(documents())) + draw(BLANKS)
    fault = draw(st.sampled_from(["none", "none", "insert", "drop", "cut", "tail"]))
    at = draw(st.integers(0, len(text)))
    if fault == "insert":
        text = text[:at] + draw(st.sampled_from(list(',:[]{}"x1 \n\x01'))) + text[at:]
    elif fault == "drop":
        text = text[:at] + text[at + 1 :]
    elif fault == "cut":
        text = text[:at]
    elif fault == "tail":
        text = text.rstrip(" \t\n\r")[:-1] + draw(st.sampled_from(["", "x", ",", "}}"]))
    return draw(st.sampled_from(["", "", "", "\ufeff"])) + text


def outcome(read, path):
    """``read(path)``'s values, arrays as their dtype, shape and bytes, or
    its exception's type and message."""
    try:
        got = read(path)
    except InputError as exc:
        return type(exc), str(exc)
    return [
        (k, (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v)
        for k, v in got.items()
    ]


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    """One file for every example: a directory per example is slow to
    remove on some file systems."""
    return tmp_path_factory.mktemp("read") / "doc.json"


@settings(max_examples=300, deadline=None)
@given(text=document_texts())
@example('{"dims": [2], "samples": [[1, 2], [3], "x"], "w": [1.0]}')
@example('{"samples": [[1, "2"]], "dims": [1, 1, 1], "samples": [[1, 2]]}')
@example('{"samples": [[1, 2], [3, "4"]], "dims": [1]')
@example('{"samples": [[1, NaN], 5], "dims": [1]} x')
@example('{"samples": [[1], [2]],}')
@example('{"samples": [[1], [2],], "dims": [1]}')
@example('{"samples": [[1]], "dims": [1] ')
@example('{"samples" [[1]]}')
@example('\ufeff{"dims": [1]}')
def test_read_json_object_reads_as_json_loads_and_read_object(doc_path, text):
    """The value-by-value reader gives the arrays and values that parsing
    the whole text and then checking it give, or the same error: a
    syntax error anywhere ahead of a bad row, and a bad row at its key's
    turn."""
    doc_path.write_text(text, encoding="utf-8")
    want = outcome(
        lambda p: read_object(load_json(p), f"{p}:", REQUIRED, OPTIONAL), doc_path
    )
    assert outcome(lambda p: read_json_object(p, REQUIRED, OPTIONAL), doc_path) == want


@pytest.mark.parametrize("chunk", [1, 3, 7])
@settings(max_examples=100, deadline=None)
@given(text=document_texts())
@example('{"samples": [[1, 2], [3, 4]], "dims": [1234567, 2]}')
@example('{"samples": [[1e5, -2.5E-3], {"a": [1]}, [[1]], "x]"], "dims": [1]}')
@example('{"note": "a long note with \\"quotes\\" and ]}, inside", "dims": []}')
@example('{"samples": [[1,2] \n ,\n [3,4] \n ] \n , "dims" \n : [1] \n } \n x')
@example('{"samples": [[1, 2], [3, "4"]], "dims": [1]} ')
@example('\ufeff{"dims": [1]}')
def test_read_json_object_reads_alike_across_window_boundaries(doc_path, chunk, text):
    """With a window of a few characters, so that every key, separator,
    row and value straddles a refill, the reader still gives the values
    and the first error of parsing the whole text and then checking it."""
    doc_path.write_text(text, encoding="utf-8")
    want = outcome(
        lambda p: read_object(load_json(p), f"{p}:", REQUIRED, OPTIONAL), doc_path
    )
    with mock.patch.object(serialize, "_CHUNK", chunk):
        got = outcome(lambda p: read_json_object(p, REQUIRED, OPTIONAL), doc_path)
    assert got == want


def samples_text(rows: int) -> str:
    """A samples document of ``rows`` rows of 64 numbers, after a first
    row that is not a list and some non-ASCII text."""
    x = np.random.default_rng(4).standard_normal((rows, 64))
    body = ",".join(json.dumps(row) for row in x.tolist())
    return '{"note": "é€😀", "samples": ["bad row", %s], "dims": [1]}' % body


@pytest.mark.parametrize(
    "where, fault",
    [
        (0.1, "none"),
        (0.5, "none"),
        (0.98, "none"),
        (0.5, "syntax"),
        (0.9, "cut"),
    ],
)
def test_a_byte_not_utf8_is_named_at_its_offset_in_the_file(tmp_path, where, fault):
    """A byte that is not UTF-8, several windows into a samples file, is
    named at the byte offset that decoding the whole file names, ahead
    of a bad row before it, and ahead of invalid JSON before or after
    it, which the file without that byte names."""
    text = samples_text(1500)
    assert len(text) > 8 * serialize._CHUNK
    cut = int(where * len(text))
    if fault == "syntax":
        text = text[: cut // 2] + "]" + text[cut // 2 :]
    data = text[:cut].encode("utf-8") + b"\xff" + text[cut:].encode("utf-8")
    if fault == "cut":
        data = data[:-100]
    path = tmp_path / "samples.json"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    want = f"{path}: not UTF-8 text at byte {whole.value.start}"
    with pytest.raises(InputError) as exc:
        read_json_object(path, REQUIRED, OPTIONAL)
    assert str(exc.value) == want
    path.write_bytes(data.replace(b"\xff", b""))
    hidden = r"samples\[0\] must be a list" if fault == "none" else "invalid JSON at"
    with pytest.raises(InputError, match=hidden):
        read_json_object(path, REQUIRED, OPTIONAL)
