"""Byte-stable JSON and CSV emission, and the one JSON reader.

Reports, checkpoints and relationship exports must reproduce identical
bytes across runs with the same seed.  The stdlib ``json`` module does
not let callers control float formatting, so a small recursive emitter
is used instead: floats are rendered with ``%.17g``, which always gives
17 significant digits (enough for every double to round-trip, though
not the shortest such form, which ``repr`` gives), dict insertion order
is preserved, and the output layout is fixed.

Float arrays are emitted a row at a time: a row is one finiteness
check and a join over each chunk of at most 4096 values, with no Python
list built by the caller and no per-element type dispatch, and the
bytes are exactly those the array's ``tolist()`` would give.
:func:`dump_json` streams the pieces to the file, so a large checkpoint
is never held as one string.

Every input file is opened by :func:`open_text`, and every JSON document
read by :func:`load_json`, which raise an :class:`InputError` naming the
file; :func:`output_errors` does the same for the command line's
outputs.  :func:`check_type` is the one JSON type rule, for config
fields and for every number read from a file: a ``list[float]`` comes
back as one float64 array.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

__all__ = [
    "InputError",
    "ConfigError",
    "format_float",
    "format_floats",
    "dumps_json",
    "dump_json",
    "open_text",
    "output_errors",
    "load_json",
    "check_type",
    "write_csv_rows",
]


class InputError(ValueError):
    """Malformed input from outside the program.

    The message names the file, or the ``config.<section>.<field>``,
    at fault; the command line maps it to exit code 1.
    """


class ConfigError(InputError):
    """A malformed config, command input or JSON field (:func:`check_type`)."""


def format_float(x: float) -> str:
    """Render a finite float with 17 significant digits.

    ``-0.0`` is normalized to ``0`` so reload/re-emit cycles are stable.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


# Values per formatted piece of a float row: bounds the Python floats
# and strings alive at once.
_CHUNK = 4096


def _float_pieces(row: np.ndarray, sep: str):
    """Pieces of :func:`format_floats` ``(row, sep)``, at most ``_CHUNK``
    values each."""
    finite = np.isfinite(row)
    if not finite.all():
        format_float(row[~finite][0])
    for start in range(0, row.size, _CHUNK):
        chunk = (row[start : start + _CHUNK] + 0.0).tolist()
        yield ("" if start == 0 else sep) + sep.join(["%.17g" % v for v in chunk])


def format_floats(row: np.ndarray, sep: str = ", ") -> str:
    """Render a 1-D float array as :func:`format_float` renders each
    entry, joined by ``sep``.

    One ``np.isfinite`` pass checks the whole row; a non-finite entry
    raises :func:`format_float`'s error for the first one.  Adding
    ``0.0`` turns ``-0.0`` into ``0.0``, which ``%.17g`` writes as ``0``.
    """
    return "".join(_float_pieces(row, sep))


def _emit(obj, write, indent, level):
    """Write the pieces of ``obj``'s JSON text through ``write``."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f" or obj.ndim == 0:
            obj = obj.tolist()
        elif obj.ndim == 1:
            write("[")
            for piece in _float_pieces(obj, ", "):
                write(piece)
            write("]")
            return
    pad = indent * level
    child = indent * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key)}")
            write(child)
            write(json.dumps(key))
            write(": ")
            _emit(value, write, indent, level + 1)
            write(",\n" if i < len(obj) - 1 else "\n")
        write(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        # A float array of two or more dims is a list of its rows.
        items = list(obj)
        if not items:
            write("[]")
            return
        # Flat numeric lists stay on one line; nested structures wrap.
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
            write("[")
            write(", ".join(_scalar(v) for v in items))
            write("]")
        else:
            write("[\n")
            for i, value in enumerate(items):
                write(child)
                _emit(value, write, indent, level + 1)
                write(",\n" if i < len(items) - 1 else "\n")
            write(pad + "]")
    else:
        write(_scalar(obj))


def _scalar(obj) -> str:
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    raise TypeError(f"cannot serialize {type(obj)} to JSON")


def dumps_json(obj) -> str:
    """Serialize ``obj`` to a deterministic JSON string (trailing newline)."""
    parts = []
    _emit(obj, parts.append, "  ", 0)
    parts.append("\n")
    return "".join(parts)


def dump_json(obj, path) -> None:
    """Write :func:`dumps_json` ``(obj)`` to ``path``, piece by piece."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _emit(obj, fh.write, "  ", 0)
        fh.write("\n")


@contextlib.contextmanager
def open_text(path):
    """``path`` open as UTF-8 text; a file that cannot be read raises
    :class:`InputError` reading ``<path>: <strerror>``, and one that does
    not decode ``<path>: not UTF-8 text at byte B``."""
    if "\0" in str(path):
        raise InputError(f"{str(path)!r}: a path cannot hold a NUL character")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                yield fh
            except UnicodeDecodeError as exc:
                # ``exc.start`` counts from the bytes last handed to the
                # decoder, which end where the byte stream now stands.
                at = fh.buffer.tell() - len(exc.object) + exc.start
                raise InputError(f"{path}: not UTF-8 text at byte {at}") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def output_errors(path):
    """Raise an ``OSError`` of the enclosed writes to ``path`` as
    :class:`InputError` reading ``<path>: <strerror>``, naming the file
    or directory at fault where the error does."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"{exc.filename or path}: {exc.strerror or exc}") from None


def load_json(path):
    """Parse the JSON file at ``path``; besides :func:`open_text`'s errors,
    raises :class:`InputError` reading ``<path>: invalid JSON at line L
    column C: <msg>`` when it does not parse."""
    try:
        with open_text(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None


# The JSON type rule of each scalar annotation: its description and its
# test.  ``type(v)`` keeps out bools, which subclass int; ``isfinite``
# keeps out NaN, the infinities and, by overflowing, integers too large
# for a double.
_JSON_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
}


def check_type(value, kind: str, where: str):
    """Check a JSON value against the field annotation ``kind``.

    ``int``, ``float``, ``bool`` and ``str`` follow ``_JSON_TYPES``;
    ``X | None`` also accepts null, and ``list[X]`` a list whose items
    pass ``X``, named ``<where>[i]``.  Any other annotation is left to
    the caller.  Returns the value, with a ``float`` as a float and a
    ``list[float]`` as a float64 array, whose items are named
    ``<where> entry J``.  A mismatch raises :class:`ConfigError` reading
    ``<where> must be <type>, got <value>``.
    """
    if kind.endswith(" | None"):
        if value is None:
            return None
        kind = kind[: -len(" | None")]
    if kind.startswith("list["):
        if type(value) is not list:
            raise ConfigError(f"{where} must be a list, got {value!r}")
        if kind == "list[float]":
            return _float_array(value, where)
        return [check_type(v, kind[5:-1], f"{where}[{i}]") for i, v in enumerate(value)]
    if kind not in _JSON_TYPES:
        return value
    what, ok = _JSON_TYPES[kind]
    with contextlib.suppress(OverflowError):
        if ok(value):
            return float(value) if kind == "float" else value
    raise ConfigError(f"{where} must be {what}, got {value!r}")


def _float_array(items: list, where: str) -> np.ndarray:
    """``items`` as a float64 array under the ``float`` rule.

    When every item is an ``int`` or a ``float``, one conversion and one
    finiteness check decide; otherwise, or when a value overflows or is
    not finite, the per-item rule names the first bad entry.
    """
    if set(map(type, items)) <= {int, float}:
        with contextlib.suppress(OverflowError):
            arr = np.array(items, dtype=float)
            if np.isfinite(arr).all():
                return arr
    return np.array(
        [check_type(v, "float", f"{where} entry {j}") for j, v in enumerate(items)]
    )


def write_csv_rows(path, header, rows) -> None:
    """Write CSV with ``\\n`` newlines and ``%.17g`` floats.

    Cells that are floats are formatted with :func:`format_float`; other
    cells are written with ``str``.  Cells must not contain commas.
    """
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                text = format_float(cell)
            else:
                text = str(cell)
            if "," in text:
                raise ValueError(f"CSV cell may not contain a comma: {text!r}")
            cells.append(text)
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
