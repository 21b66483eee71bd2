"""Compare two relnet output directories number by number.

Usage, from the repository root::

    python tools/compare_outputs.py DIR_A DIR_B [--rtol 1e-10]

Every file of either directory is compared except ``timings.csv``,
which holds wall-clock values.  Both directories must hold the same
file names.

* ``.csv`` files: the headers must be equal.  Cells of a
  ``train_acc_*`` or ``test_acc_*`` column must be equal as text.
  Any other cell that parses as a number in both files must agree
  within ``rtol``; any other cell must be equal as text.
* ``.json`` files: objects must have the same keys in the same order,
  lists the same length, and strings, booleans and nulls must be
  equal.  Numbers must agree within ``rtol``, except under a
  ``train_acc_*`` or ``test_acc_*`` key, where they must be equal.
  An array object (``{"dtype": "<f8", "shape": [...], "base64":
  "..."}``, as checkpoint version 2 writes weights) is decoded by
  ``relnet.serialize.check_type`` and compared entry by entry, within
  ``rtol``, with another array object of the same shape or with a flat
  list of as many numbers (as checkpoint version 1 writes them).  The
  values of ``schema_version`` keys are not compared: they name how the
  numbers are written, not what they are.
* Any other file must be equal byte for byte.

Two numbers agree within ``rtol`` when ``|a - b| <= rtol * scale``.
``scale`` is the largest magnitude of the pair's CSV column or JSON
list in either file, or of the pair itself for a lone number.  So an
entry that is zero up to rounding, next to entries of order one, is
judged against the size of its neighbours.

For each file that differs, the first differing cell is printed.
Exit 0 when every file agrees, printing the largest relative deviation
seen, and 1 otherwise.  Needs numpy, the standard library and the
``relnet`` package of this checkout.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relnet.serialize import check_type  # noqa: E402

SKIPPED = {"timings.csv"}
EXACT_PREFIXES = ("train_acc_", "test_acc_")


class Mismatch(Exception):
    """The first difference found in one file."""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _exact(name: str) -> bool:
    return name.startswith(EXACT_PREFIXES)


class Comparer:
    """Compares values under one ``rtol``, tracking the largest relative
    deviation of the numbers compared so far."""

    def __init__(self, rtol: float):
        self.rtol = rtol
        self.max_dev = 0.0

    def numbers(self, a, b, where) -> None:
        """Compare two equal-length float sequences within ``rtol``;
        ``where(i)`` names entry ``i`` in a message."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        both_nan = np.isnan(a) & np.isnan(b)
        same = (a == b) | both_nan
        if same.all():
            return
        finite = np.isfinite(a) & np.isfinite(b)
        mags = np.abs(np.concatenate([a[finite], b[finite]]))
        scale = float(mags.max()) if mags.size else 0.0
        with np.errstate(invalid="ignore"):
            dev = np.where(same, 0.0, np.abs(a - b) / scale if scale else np.inf)
        dev = np.where(np.isnan(dev), np.inf, dev)
        self.max_dev = max(self.max_dev, float(dev.max()))
        bad = np.flatnonzero(dev > self.rtol)
        if bad.size:
            i = int(bad[0])
            raise Mismatch(
                f"{where(i)}: {float(a[i])!r} != {float(b[i])!r} "
                f"(relative deviation {dev[i]:.3g} > {self.rtol:g})"
            )

    def array(self, a, b, path: str, exact: bool) -> None:
        """Compare an array object with another or with a flat list."""
        x, y = (_flat_array(v, path) for v in (a, b))
        if x is None or y is None or x.size != y.size:
            raise Mismatch(f"{path}: {_describe(a)} != {_describe(b)}")
        if _is_array(a) and _is_array(b) and a["shape"] != b["shape"]:
            raise Mismatch(f"{path}: shape {a['shape']} != {b['shape']}")
        if not exact:
            self.numbers(x, y, lambda i: f"{path}[flat {i}]")
        elif x.tolist() != y.tolist():
            raise Mismatch(f"{path}: arrays differ (must be equal)")

    def json(self, a, b, path: str, exact: bool = False) -> None:
        if _is_array(a) or _is_array(b):
            self.array(a, b, path, exact)
            return
        if _is_number(a) and _is_number(b):
            if exact:
                if a != b:
                    raise Mismatch(f"{path}: {a!r} != {b!r} (must be equal)")
                return
            self.numbers([a], [b], lambda _: path)
            return
        if type(a) is not type(b):
            raise Mismatch(f"{path}: {a!r} != {b!r}")
        if isinstance(a, dict):
            if list(a) != list(b):
                raise Mismatch(f"{path}: keys {list(a)} != {list(b)}")
            for key in a:
                if key != "schema_version":
                    self.json(a[key], b[key], f"{path}.{key}", exact or _exact(key))
            return
        if isinstance(a, list):
            if len(a) != len(b):
                raise Mismatch(f"{path}: length {len(a)} != {len(b)}")
            flat_a, flat_b = _numeric_leaves(a), _numeric_leaves(b)
            if flat_a is not None and flat_b is not None and not exact:
                self.numbers(flat_a, flat_b, lambda i: f"{path}[flat {i}]")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.json(x, y, f"{path}[{i}]", exact)
            return
        if a != b:
            raise Mismatch(f"{path}: {a!r} != {b!r}")

    def csv(self, rows_a, rows_b) -> None:
        if not rows_a or not rows_b:
            if rows_a != rows_b:
                raise Mismatch("one file is empty")
            return
        header = rows_a[0]
        if header != rows_b[0]:
            raise Mismatch(f"header {header} != {rows_b[0]}")
        if len(rows_a) != len(rows_b):
            raise Mismatch(f"{len(rows_a) - 1} rows != {len(rows_b) - 1} rows")
        for r, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
            if len(ra) != len(rb):
                raise Mismatch(f"row {r}: {len(ra)} cells != {len(rb)} cells")
        for c, name in enumerate(header):
            col_a = [row[c] if c < len(row) else "" for row in rows_a[1:]]
            col_b = [row[c] if c < len(row) else "" for row in rows_b[1:]]
            where = lambda i: f"row {i + 1}, column {name!r}"  # noqa: E731
            nums_a, nums_b = _parse_column(col_a), _parse_column(col_b)
            if _exact(name) or nums_a is None or nums_b is None:
                for i, (x, y) in enumerate(zip(col_a, col_b)):
                    if x != y:
                        raise Mismatch(f"{where(i)}: {x!r} != {y!r} (must be equal)")
                continue
            self.numbers(nums_a, nums_b, where)


def _is_array(value) -> bool:
    return type(value) is dict and set(value) == {"dtype", "shape", "base64"}


def _flat_array(value, path: str):
    """The entries of an array object, or of a flat list of numbers, as
    one flat float array; None for any other value.  A malformed array
    object raises ``relnet.serialize.ConfigError``, a ``ValueError``."""
    if _is_array(value):
        return check_type(value, "list[float]", path).ravel()
    if type(value) is list and all(map(_is_number, value)):
        return np.asarray(value, dtype=float)
    return None


def _describe(value) -> str:
    """An array object's shape, a list's length, or the value itself."""
    if _is_array(value):
        return f"array of shape {value['shape']}"
    if type(value) is list:
        return f"list of length {len(value)}"
    return repr(value)


def _numeric_leaves(value):
    """The numbers of a (nested) list of numbers, flattened; None if any
    leaf is not a number."""
    out = []
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        elif _is_number(item):
            out.append(item)
        else:
            return None
    return out


def _parse_column(cells):
    """The cells as floats, or None if one does not parse."""
    try:
        return [float(x) for x in cells]
    except ValueError:
        return None


def _rows(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def compare_file(comparer: Comparer, a: Path, b: Path) -> None:
    """Raise :class:`Mismatch` at the first difference of two files."""
    if a.suffix == ".csv":
        comparer.csv(_rows(a), _rows(b))
    elif a.suffix == ".json":
        docs = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
        comparer.json(*docs, "$")
    elif a.read_bytes() != b.read_bytes():
        raise Mismatch("bytes differ")


def _files(root: Path) -> set:
    return {
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.name not in SKIPPED
    }


def compare_dirs(dir_a: Path, dir_b: Path, rtol: float, out=None) -> int:
    """Print one line per differing file to ``out`` (default standard
    output); return the exit code."""
    out = out or sys.stdout
    comparer = Comparer(rtol)
    names_a, names_b = _files(dir_a), _files(dir_b)
    failed = False
    for name in sorted(names_a ^ names_b):
        where = dir_a if name in names_a else dir_b
        print(f"{name}: only in {where}", file=out)
        failed = True
    shared = sorted(names_a & names_b)
    for name in shared:
        try:
            compare_file(comparer, dir_a / name, dir_b / name)
        except Mismatch as exc:
            print(f"{name}: {exc}", file=out)
            failed = True
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            print(f"{name}: unreadable: {exc}", file=out)
            failed = True
    if failed:
        return 1
    dev = comparer.max_dev
    shown = "0" if dev == 0 else f"{dev:.3g}"
    print(
        f"{len(shared)} files agree within rtol {rtol:g}; "
        f"largest relative deviation {shown}",
        file=out,
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two relnet output directories number by number."
    )
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--rtol", type=float, default=1e-10)
    args = parser.parse_args(argv)
    if not (math.isfinite(args.rtol) and args.rtol >= 0):
        parser.error("--rtol must be a finite number of at least 0")
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    return compare_dirs(args.dir_a, args.dir_b, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
