"""Byte-stable JSON and CSV emission, and the one JSON reader.

Reports, checkpoints and relationship exports must reproduce identical
bytes across runs with the same seed.  The stdlib ``json`` module does
not let callers control float formatting, so a small recursive emitter
is used instead: floats are rendered with ``%.17g``, which always gives
17 significant digits (enough for every double to round-trip, though
not the shortest such form, which ``repr`` gives), dict insertion order
is preserved, and the output layout is fixed.

A float array is emitted as text a row at a time: one finiteness check
and one ``%`` join per row, with no Python list built by the caller and
no per-element type dispatch, and the bytes are exactly those the
array's ``tolist()`` would give.  A :class:`BinaryArray` is emitted
instead as one array object on one line, ``{"dtype": "<f8", "shape":
[...], "base64": "..."}``: the array's little-endian float64 bytes,
row-major, in standard base64, exact to the bit and encoded only when
written, one array at a time.

Every CSV file is written by :func:`write_csv_rows`, as the text
:func:`csv_text` gives, which is also the text the command line prints.

Every input file is opened by :func:`open_text`, and every JSON document
read by :func:`load_json` or :func:`read_json_object`, which raise an
:class:`InputError` naming the file; :func:`output_errors` does the same
for the command line's outputs.  :func:`read_object` is the one rule for
a JSON object of known keys, for the config and each of its sections,
the manifest, the checkpoint, the ``tnd-fit`` samples and the
relationship file; it checks each value with :func:`check_type`, the one
JSON type rule: a ``list[float]`` comes back as one float64 array, and a
``list[list[float]]`` as one 2-D float64 array, from a JSON list or an
array object alike.  :func:`read_json_object` applies it to a file's
top-level object as it reads the file through a bounded window of its
text: one loop over an object's members and a list's items reads the
object a value at a time, and a matrix a row at a time, so the file
costs the window and the arrays, not its whole text or a Python float
per number.  Any other text, invalid JSON or a document that is not one
object, is read again whole, and rejected as the whole read words it.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import re
from reprlib import repr as _shown  # a long value is cut short

import numpy as np

__all__ = [
    "InputError",
    "ConfigError",
    "format_float",
    "format_floats",
    "BinaryArray",
    "dumps_json",
    "dump_json",
    "open_text",
    "output_errors",
    "load_json",
    "read_json_object",
    "read_object",
    "check_type",
    "check_task_names",
    "csv_text",
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


def _check_finite(arr: np.ndarray) -> None:
    """Raise :func:`format_float`'s error for the first non-finite entry
    of ``arr``, after one ``np.isfinite`` pass."""
    finite = np.isfinite(arr)
    if not finite.all():
        format_float(arr[~finite][0])


def format_floats(row: np.ndarray, sep: str = ", ") -> str:
    """Render a 1-D float array as :func:`format_float` renders each
    entry, joined by ``sep``: one ``%`` against a template of one
    ``%.17g`` per value.

    One ``np.isfinite`` pass checks the whole row; a non-finite entry
    raises :func:`format_float`'s error for the first one.  Adding
    ``0.0`` turns ``-0.0`` into ``0.0``, which ``%.17g`` writes as ``0``.
    """
    _check_finite(row)
    return sep.join(["%.17g"] * row.size) % tuple((row + 0.0).tolist())


class BinaryArray:
    """A finite float array that :func:`dump_json` writes as one array
    object, exact to the bit (``-0.0`` and subnormals included);
    :func:`check_type` reads it back as a ``list[float]``.

    A non-finite entry raises :func:`format_float`'s error for the first
    one, here, before anything is written.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        self.array = np.asarray(array, dtype="<f8")
        _check_finite(self.array)

    def json(self) -> str:
        """The array object as one line of JSON."""
        shape = ", ".join(map(str, self.array.shape))
        data = base64.b64encode(self.array.tobytes()).decode("ascii")
        return f'{{"dtype": "<f8", "shape": [{shape}], "base64": "{data}"}}'


def _emit(obj, write, indent, level):
    """Write the pieces of ``obj``'s JSON text through ``write``."""
    if isinstance(obj, BinaryArray):
        write(obj.json())
        return
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f" or obj.ndim == 0:
            obj = obj.tolist()
        elif obj.ndim == 1:
            write("[" + format_floats(obj) + "]")
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
    a text that does not parse raises :class:`InputError`: ``<path>:
    invalid JSON at line L column C: <msg>``, or ``<path>: invalid JSON:
    nested too deeply`` where the decoder runs out of stack."""
    try:
        with open_text(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    except RecursionError:
        raise InputError(f"{path}: invalid JSON: nested too deeply") from None


def read_json_object(path, required: dict, optional=None) -> dict:
    """The JSON object of the file at ``path``, read as :func:`load_json`
    and :func:`read_object` with ``where`` ``<path>:`` read it, with the
    same values and the same first error, but value by value through a
    bounded window of the text.

    The file is read ``_CHUNK`` characters at a time into a window
    (:class:`_Window`) that drops the text the scan has passed.  One
    loop, :func:`_items`, walks the top-level object key by key, and a
    ``list[list[float]]`` value in list form row by row into one float64
    array (:func:`_float_matrix`), so neither the whole text nor the
    matrix as Python floats ever exists.  Invalid JSON anywhere in the
    text comes ahead of any type error: a row's :class:`ConfigError` is
    held until the text has parsed, and raised at its key's turn.  Any
    other text, a fault or a document that is not one JSON object, is
    read again whole by :func:`load_json`, which names a fault as
    before: a byte that is not UTF-8 first, wherever it is, then the
    JSON error with ``json.load``'s message and position.
    """
    where = f"{path}:"
    table = {**(optional or {}), **required}
    try:
        with open_text(path) as fh:
            doc = _scan_document(_Window(fh), where, table)
    except (json.JSONDecodeError, RecursionError):
        doc = load_json(path)
    return _read_object(doc, where, required, optional, _checked)


_DECODER = json.JSONDecoder()
_BLANKS = json.decoder.WHITESPACE.match
# The comma or bracket after an item, with the blanks around it.
_AFTER = re.compile(r"[ \t\n\r]*([,\]}])[ \t\n\r]*").match
# Characters read into the window at a time.  A large chunk costs peak
# memory, since the C heap keeps what it freed, and a small one costs
# refills.
_CHUNK = 1 << 17
# The character that may end a JSON value, by the value's first one:
# the window must hold one after the value's start before it is decoded.
_CLOSERS = {
    '"': re.compile('"').search,
    "[": re.compile(r"\]").search,
    "{": re.compile("}").search,
}
_SCALAR_END = re.compile(r"[,\]}]").search


class _Window:
    """The text of the open file ``fh``, read through a window.

    ``text`` holds the part of the file the scan is in, and ``at`` is
    the scan's position in it.  Each read ahead drops the text before
    ``at`` and appends the next characters of the file, so it copies
    only the unread tail; ``eof`` is true once ``text`` runs to the end
    of the file, and ``last`` is the index of its last ``]``.
    """

    def __init__(self, fh):
        self.fh, self.text, self.at, self.eof, self.last = fh, "", 0, False, -1

    def hold(self, search=None, least: int = 0) -> None:
        """Drop ``text`` before ``at`` and read ahead pieces of at least
        ``least`` characters, and at least ``_CHUNK``, until ``search``
        finds a match in one (one piece if ``search`` is None), or the
        file ends."""
        pieces = [self.text[self.at :]]
        while not self.eof:
            pieces.append(self.fh.read(max(_CHUNK, least)))
            self.eof = not pieces[-1]
            if search is None or search(pieces[-1]):
                break
        self.text, self.at = "".join(pieces), 0
        self.last = self.text.rfind("]")

    def peek(self) -> str:
        """The first non-blank character at or after ``at``, to which
        ``at`` moves, or ``""`` at the end of the file."""
        self.at = _BLANKS(self.text, self.at).end()
        while self.at == len(self.text) and not self.eof:
            self.hold()
            self.at = _BLANKS(self.text, self.at).end()
        return self.text[self.at : self.at + 1]

    def token(self) -> str:
        """:meth:`peek`'s character; ``at`` then passes it and the blanks
        after it."""
        c = self.peek()
        self.at += len(c)
        self.peek()
        return c

    def value(self):
        """The JSON value that starts at ``at``, where :meth:`peek` and
        :meth:`token` leave it, decoded once the window holds its closer
        (``_CLOSERS``) after its start; ``at`` then passes it.  A list
        that starts before ``last`` holds one without a search, so a
        matrix row costs no scan ahead.  A decode that fails before the
        end of the file is run again on a window of twice the unread
        text, so a value is never cut short: a cut one fails, except for
        a number, which the closer keeps whole."""
        c = self.text[self.at : self.at + 1]
        if not (self.eof or (c == "[" and self.at < self.last)):
            search = _CLOSERS.get(c, _SCALAR_END)
            if not search(self.text, self.at + 1):
                self.hold(search)
        while True:
            try:
                value, self.at = _DECODER.raw_decode(self.text, self.at)
                return value
            except json.JSONDecodeError:
                if self.eof:
                    raise
            self.hold(least=len(self.text) - self.at)


def _items(window: _Window, close: str):
    """Yield the items of the JSON list (``close`` ``]``), or the keys of
    the JSON object (``close`` ``}``), whose opening bracket is at
    ``window.at``.  After a key the window is at its value, which the
    caller reads before the next item; after the last, it is past the
    closing bracket.  A fault raises a ``json.JSONDecodeError``."""
    window.at += 1
    if window.peek() == close:
        window.at += 1
        return
    while True:
        item = window.value()
        if close == "}" and (type(item) is not str or window.token() != ":"):
            raise json.JSONDecodeError("Expecting property name", window.text, window.at)
        yield item
        # One match finds the separator, unless the window ends in it.  The
        # match is dropped before the next item is read, so that reading
        # ahead frees the text it points into.
        after = _AFTER(window.text, window.at)
        if after is None or after.end() == len(window.text):
            c = window.token()
        else:
            c, window.at = after[1], after.end()
        del after
        if c != ",":
            if c != close:
                raise json.JSONDecodeError("Expecting ',' delimiter", window.text, window.at)
            return


def _scan_document(window: _Window, where: str, table: dict) -> dict:
    """The JSON object in ``window``, parsed as ``json.loads`` parses it,
    except that the value of each key whose annotation in ``table`` is
    ``list[list[float]]`` and which is a JSON list is the array of
    :func:`_float_matrix`, or the :class:`ConfigError` of its first bad
    row, after which the rest of the list is still parsed.  A fault, or
    a document that is not an object, raises a
    ``json.JSONDecodeError``."""
    if window.peek() != "{":
        raise json.JSONDecodeError("Expecting '{'", window.text, window.at)
    doc = {}
    for key in _items(window, "}"):
        if table.get(key) != "list[list[float]]" or window.peek() != "[":
            doc[key] = window.value()
            continue
        rows = _items(window, "]")
        try:
            doc[key] = _float_matrix(rows, f"{where} {key}")
        except ConfigError as exc:
            doc[key] = exc
            for _ in rows:
                pass
    if window.peek():
        raise json.JSONDecodeError("Extra data", window.text, window.at)
    return doc


def _checked(value, kind, where: str):
    """:func:`check_type`, except that a matrix :func:`_scan_document`
    read row by row is its array already, or its held-back error."""
    if isinstance(value, ConfigError):
        raise value
    if type(value) is np.ndarray:
        return value
    return check_type(value, kind, where)


def read_object(doc, where: str, required: dict, optional=None) -> dict:
    """The JSON object ``doc`` named ``where``, its values checked.

    ``required`` and ``optional`` map each key to its :func:`check_type`
    annotation; a key in neither is unknown.  ``where`` is a key path
    such as ``config.train``, whose keys are named ``<where>.<key>``, or
    ``<file>:`` for the top of a file, whose keys are named ``<file>:
    <key>``.  The values of the known keys are checked first, in
    document order, so a ``schema_version`` of another version is named
    before its keys; then a missing key and an unknown key raise
    :class:`ConfigError` naming ``where``.  Returns a new dict of the
    checked values.
    """
    return _read_object(doc, where, required, optional, check_type)


def _read_object(doc, where, required, optional, check) -> dict:
    """:func:`read_object`, each value checked by ``check``."""
    name = where.removesuffix(":")
    check_type(doc, "dict", name)
    table = {**(optional or {}), **required}
    sep = " " if where.endswith(":") else "."
    read = {
        key: check(value, table[key], f"{where}{sep}{key}")
        for key, value in doc.items()
        if key in table
    }
    missing, unknown = set(required) - set(doc), set(doc) - set(read)
    for what, keys in (("missing", missing), ("unknown", unknown)):
        if keys:
            raise ConfigError(f"{name}: {what} keys {sorted(keys)}")
    return read


# The JSON type rule of each scalar annotation: its description and its
# test.  ``type(v)`` keeps out bools, which subclass int; ``isfinite``
# keeps out NaN, the infinities and, by overflowing, integers too large
# for a double.
_JSON_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "count": ("a positive integer", lambda v: type(v) is int and v > 0),
    "float": ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "dict": ("an object", lambda v: type(v) is dict),
}


def check_type(value, kind, where: str):
    """Check a JSON value against the field annotation ``kind``.

    ``int``, ``count`` (an integer of at least 1), ``float``, ``bool``,
    ``str`` and ``dict`` (a JSON object) follow ``_JSON_TYPES``; a
    tuple accepts exactly its values, each of its own JSON type
    (``(1,)`` takes ``1`` but not ``1.0`` or ``true``), and names them
    as JSON; ``X | None`` also accepts null, and ``list[X]`` a list
    whose items pass ``X``, named ``<where>[i]``.  Returns the value,
    with a ``float`` as a float and a ``list[float]`` as a float64
    array, whose items are named ``<where> entry J``.  A mismatch raises
    :class:`ConfigError` reading ``<where> must be <type>, got
    <value>``.

    A ``list[list[float]]`` is the matrix rule: a list of equal-length
    lists of finite numbers, which comes back as one C-contiguous
    ``(rows, columns)`` float64 array.  A row that is not a list is
    named ``<where>[i]``, a bad entry ``<where>[i] entry j``, and a
    ragged row ``<where>[i] has N entries, <where>[0] has M``.  A
    list without rows reads as shape ``(0, 0)``.

    A ``list[float]`` or a ``list[list[float]]`` may also be one array
    object (:class:`BinaryArray`): ``dtype`` exactly ``"<f8"``,
    ``shape`` a list of integers of at least 0 (of two for a matrix),
    and ``base64`` the standard base64 (padding included, no other
    character) of ``8 * prod(shape)`` bytes.  It comes back as a
    writable array of that shape with those exact bits, and entry ``J``
    (row-major) must be finite as in a list.  An array object stands
    for a whole value, never for an item of a list: the rows of a
    matrix in list form are JSON lists.
    """
    if type(value) is dict and kind in _ARRAY_DIMS:
        return _decode_array(value, where, _ARRAY_DIMS[kind])
    return _check_json(value, kind, where)


# The annotations an array object may stand for, and the number of dims
# it must then have (None: any).
_ARRAY_DIMS = {"list[float]": None, "list[list[float]]": 2}


def _check_json(value, kind, where: str):
    """:func:`check_type` without array objects."""
    if type(kind) is tuple:
        if any(type(value) is type(v) and value == v for v in kind):
            return value
        raise ConfigError(
            f"{where} must be {' or '.join(map(json.dumps, kind))}, got {_shown(value)}"
        )
    if kind.endswith(" | None"):
        if value is None:
            return None
        kind = kind[: -len(" | None")]
    if kind.startswith("list["):
        if type(value) is not list:
            raise ConfigError(f"{where} must be a list, got {_shown(value)}")
        if kind == "list[float]":
            return _float_array(value, where)
        if kind == "list[list[float]]":
            return _float_matrix(value, where)
        return [_check_json(v, kind[5:-1], f"{where}[{i}]") for i, v in enumerate(value)]
    what, ok = _JSON_TYPES[kind]
    with contextlib.suppress(OverflowError):
        if ok(value):
            return float(value) if kind == "float" else value
    raise ConfigError(f"{where} must be {what}, got {_shown(value)}")


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


def _float_matrix(rows, where: str) -> np.ndarray:
    """The iterable ``rows`` as a ``(rows, columns)`` float64 array under
    the matrix rule of :func:`check_type`, read one row at a time.

    A list of row 0's length whose items are all ``int`` or ``float`` is
    written straight into one array, which doubles its rows as it fills
    and is trimmed at the end; one finiteness check then covers them
    all.  The first other row, or one that overflows, ends the read:
    :func:`_bad_row` names the first bad entry of the rows ahead of it,
    or else the row itself, so no row after it is read.
    """
    out, n = np.empty((0, 0)), 0
    for row in rows:
        if (
            type(row) is not list
            or (n and len(row) != out.shape[1])
            or not set(map(type, row)) <= {int, float}
        ):
            _bad_row(out[:n], row, where)
        if n == 0:
            out = np.empty((1, len(row)))
        elif n == len(out):
            out.resize((2 * n, out.shape[1]), refcheck=False)
        try:
            out[n] = row
        except OverflowError:
            _bad_row(out[:n], row, where)
        n += 1
    _check_finite_rows(out[:n], where)
    out.resize((n, out.shape[1]), refcheck=False)
    return out


def _bad_row(head: np.ndarray, row, where: str):
    """Raise the :class:`ConfigError` of the matrix whose rows so far are
    ``head`` and whose next row ``row`` does not fit: the first
    non-finite entry of ``head``, or else ``row``'s own fault."""
    _check_finite_rows(head, where)
    i = len(head)
    if type(row) is not list:
        raise ConfigError(f"{where}[{i}] must be a list, got {_shown(row)}")
    if i and len(row) != head.shape[1]:
        # Row 0 is named by its key path alone: ``where`` may start with
        # a file name, which the message already gives.
        first = where.rpartition(": ")[2]
        raise ConfigError(
            f"{where}[{i}] has {len(row)} entries, {first}[0] has {head.shape[1]}"
        )
    _float_array(row, f"{where}[{i}]")
    raise AssertionError(f"{where}[{i}] passes the float rule")


def _check_finite_rows(rows: np.ndarray, where: str) -> None:
    """Name the first non-finite entry of the 2-D array ``rows``, row
    by row, as the ``float`` rule does."""
    finite = np.isfinite(rows)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), rows.shape[1])
        check_type(float(rows[i, j]), "float", f"{where}[{i}] entry {j}")


def _decode_array(obj: dict, where: str, ndim=None) -> np.ndarray:
    """The float64 array of the array object ``obj`` (see
    :func:`check_type`), of ``ndim`` dims unless that is None.  The
    base64 is decoded block by block into the array, whose length is
    checked against the text's before it is made, so the decode holds
    the text, the array and one block."""
    keys = {"dtype": ("<f8",), "shape": "list[int]", "base64": "str"}
    obj = read_object(obj, where, keys)
    shape, text = obj["shape"], obj["base64"]
    if ndim is not None and len(shape) != ndim:
        raise ConfigError(f"{where} must have {ndim} dims, got shape {shape}")
    for i, d in enumerate(shape):
        if d < 0:
            raise ConfigError(f"{where}.shape[{i}] must be at least 0, got {d}")
    size = math.prod(shape)
    arr = _decode_floats(text, size)
    if arr is None:
        # The text is not the standard base64 of 8 * size bytes: decode
        # it whole only to word the error.  A standard text that gets
        # here has the wrong length.
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as exc:
            raise ConfigError(f"{where}.base64 is not base64: {exc}") from None
        if not _standard_base64(text, raw):
            raise ConfigError(
                f"{where}.base64 is not base64: not the standard encoding of its bytes"
            )
        raise ConfigError(
            f"{where}.base64 holds {len(raw)} bytes, but shape {shape} needs "
            f"{8 * size}"
        )
    try:
        arr = arr.astype(float, copy=False).reshape(shape)
    except ValueError as exc:
        raise ConfigError(f"{where}.shape {shape}: {exc}") from None
    finite = np.isfinite(arr).ravel()
    if not finite.all():
        j = int(np.argmin(finite))
        check_type(float(arr.flat[j]), "float", f"{where} entry {j}")
    return arr


# Characters of base64 decoded at a time: whole quanta of 4.
_QUANTA = 1 << 17


def _decode_floats(text: str, size: int):
    """The ``size`` little-endian doubles whose standard base64 is
    ``text``, as one flat array decoded ``_QUANTA`` characters at a time,
    or None if ``text`` is not that.  Each block is a whole number of
    quanta, so only padding inside the text can split the bytes
    differently from a whole decode, and then the lengths or the last
    quantum disagree."""
    if len(text) != 4 * -(-8 * size // 3):
        return None
    arr = np.empty(size, dtype="<f8")
    out, at = memoryview(arr).cast("B"), 0
    for i in range(0, len(text), _QUANTA):
        try:
            piece = base64.b64decode(text[i : i + _QUANTA], validate=True)
            out[at : at + len(piece)] = piece
        except ValueError:
            return None
        at += len(piece)
    return arr if at == len(out) and _standard_base64(text, out) else None


def _standard_base64(text: str, raw: bytes) -> bool:
    """Whether ``text``, which ``b64decode(..., validate=True)`` took for
    ``raw``, is the standard base64 of ``raw``, as ``b64encode(raw)``
    spells it, without encoding ``raw`` again.

    The strict decoder takes only the alphabet and trailing padding, and
    every full quantum before the last is then standard; it also takes
    excess padding after a full quantum and non-zero unused bits in the
    last one.  So the length and the last quantum decide.
    """
    if len(text) != 4 * -(-len(raw) // 3):
        return False
    last = raw[-(len(raw) % 3 or 3) :]
    return text[-4:] == base64.b64encode(last).decode("ascii")


# A comma splits a CSV cell; a control character (below U+0020, or
# U+007F), a newline among them, splits or garbles a CSV line.
_BAD_NAME_CHARS = re.compile(r"[,\x00-\x1f\x7f]")


def check_task_names(names, error=ValueError) -> None:
    """Raise ``error(message)`` unless ``names`` is a non-empty list of
    unique, non-empty strings without commas or control characters
    (below U+0020, and U+007F): task names become CSV cells and header
    fields (:func:`csv_text`)."""
    if not names:
        raise error("need at least one task")
    for name in names:
        if not isinstance(name, str) or not name or _BAD_NAME_CHARS.search(name):
            raise error(f"bad task name {name!r}")
    if len(set(names)) != len(names):
        raise error("task names must be unique")


def _csv_cell(cell) -> str:
    if isinstance(cell, np.ndarray):
        return format_floats(cell, ",")
    if isinstance(cell, (float, np.floating)):
        return format_float(cell)
    text = str(cell)
    if "," in text:
        raise ValueError(f"CSV cell may not contain a comma: {text!r}")
    return text


def csv_text(rows) -> str:
    """The CSV text of ``rows``, a header among them if there is one:
    one line per row, each ending in ``\\n``, its cells joined by commas.

    A float cell is written as :func:`format_float` writes it, and a 1-D
    float array cell as its entries, each so written, joined by commas;
    any other cell is written with ``str`` and must not hold a comma.
    """
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)


def write_csv_rows(path, rows) -> None:
    """Write :func:`csv_text` ``(rows)`` to ``path`` as UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(rows))
