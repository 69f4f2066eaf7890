"""Every file distrel writes or reads, each on-disk format coded once.

JSON: indent 2, sorted keys, a trailing newline. A level table is a CSV of one
column per search-space dimension, then its own columns: floats as ``%.17g``,
which reads back bit for bit, and ``BINARY_COLUMNS`` as 0 or 1. Every number
in a file is finite: writing NaN or an infinity raises ValueError, and an
input file holding one (``nan``, ``inf``, ``NaN``, ``Infinity`` or a literal
such as ``1e309`` that overflows) is refused. An unreadable input file raises
``InputFileError``, naming the file and any table line.
"""

import csv
import json
import math
from contextlib import contextmanager

import numpy as np

BINARY_COLUMNS = ("label", "is_synthetic")


class InputFileError(ValueError):
    """An input file cannot be read or parsed; maps to exit code 1."""


def _unreadable(path, exc) -> InputFileError:
    return InputFileError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")


def _finite(text) -> float:
    """``float(text)``, refusing NaN and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def write_json(path, doc) -> None:
    # encoded in full first, so a non-finite number leaves no partial file
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, or not finite
        raise _unreadable(path, exc) from None
    if not isinstance(doc, dict):
        raise InputFileError(f"{path}: top level must be a JSON object, got {type(doc).__name__}")
    return doc


@contextmanager
def fields_of(path):
    """Report a missing field or invalid content of the parsed ``path`` as an input error."""
    try:
        yield
    except KeyError as exc:
        raise InputFileError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputFileError(f"{path}: invalid content: {exc}") from None


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def write_levels(path, names, levels, columns: dict) -> None:
    """The (n, d) ``levels`` under ``names``, then ``columns`` (name -> n values)."""
    cells = [[f"{v:.17g}" for v in col] for col in np.asarray(levels, dtype=np.float64).T.tolist()]
    for name, values in columns.items():
        values = np.asarray(values).tolist()
        cells.append([str(int(v)) for v in values] if name in BINARY_COLUMNS
                     else [f"{v:.17g}" for v in values])
    write_csv(path, [*names, *columns], zip(*cells))


def _binary(text) -> int:
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return int(text)


def read_levels(path, names, *layouts) -> tuple:
    """Parse a level table whose header is ``names`` then one of ``layouts``, in
    one pass: ``(layout, (n, d) levels, {column name: n values})``."""
    d = len(names)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            tail = tuple(header[d:])
            if header[:d] != list(names) or tail not in layouts:
                expected = " or ".join(str([*names, *t]) for t in layouts)
                raise InputFileError(f"{path}: unexpected header {header}, expected {expected}")
            parsers = [_finite] * d + [_binary if c in BINARY_COLUMNS else _finite for c in tail]
            rows = []
            for row in filter(None, reader):
                try:
                    if len(row) != len(parsers):
                        raise ValueError(f"{len(row)} fields, expected {len(parsers)}")
                    rows.append([parse(v) for parse, v in zip(parsers, row)])
                except ValueError as exc:
                    raise InputFileError(f"{path}, line {reader.line_num}: {exc}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise _unreadable(path, exc) from None
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(parsers))
    columns = {c: table[:, d + j].astype(np.int64 if c in BINARY_COLUMNS else np.float64)
               for j, c in enumerate(tail)}
    return tail, table[:, :d].copy(), columns
