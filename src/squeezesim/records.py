"""Lossless trial-record persistence: CSV rows plus a JSON metadata sidecar.

A record file is UTF-8 text.  It starts with a ``# schema=2`` comment,
then a header row.  Columns for a record set with probe labels L1..Lk::

    trial, L1, ..., Lk, omega_p_offset_hz,
    L1_freq_hz, ..., Lk_freq_hz, true_jz_1, ..., true_jz_m

``trial`` is the trial's index in the run, so the column reads 0, 1, ...,
n - 1; with the sidecar's master seed it names the trial, whose chunk is
``trial // sequence.CHUNK_TRIALS``.
Every other file column is a column of one of the ``RecordSet``'s
arrays: the k-th label's columns are the k-th column of ``n_up`` and of
``freq_hz``, and ``true_jz_j`` is the j-th column of ``true_jz``.  Both
functions work on those arrays and build no ``TrialRecord``.  Every
float cell is spelled as ``repr`` spells it (shortest round-trip form), so
``read_records(write_records(rs)) == rs`` bit-exactly.  The writer gets
most cells from one ``orjson`` call (see :func:`_rows`) and writes the
rows as one byte string.  Numbers are never quoted; only the header,
whose labels may be quoted, goes through ``csv``.

The reader splits a file into lines at CRLF, LF or CR.  Its plain rows,
of digits, signs, points, exponents and commas, no cell ``-0`` and JSON
numbers only, are parsed in one ``orjson`` call (see :func:`_table`),
which reads each number to the value numpy reads.  Each other row (with
``nan``, ``inf``, ``+1``, ``01`` or ``.5``, say, or a cell that is not a
number) is split at its commas and converted by numpy (see
:func:`_parse`), which also names what is wrong with it.
The sidecar ``<path>.meta.json`` carries the parameter snapshot, the
master seed, the trial count, a content hash of the canonical parameter
text, and a timestamp (the only non-reproducible output field).
``read_records`` raises ``RecordIOError``, naming the file and where it
can the line and column, for a sidecar that is not a JSON object or
lacks an entry it reads or holds one of the wrong type or repeats a
label, a byte that is not UTF-8, a schema line other than
``# schema=2``, a header that names a
column twice, a row count that differs from the sidecar's, a row whose
length differs from the header's, a cell that is not a number, a
``trial`` cell out of order or a sidecar label with no column.
``write_records`` raises it, writing nothing, for a probe label that is
also the name of another column (``trial``, ``omega_p_offset_hz``,
another label's ``_freq_hz`` column or a ``true_jz_`` column).
``read_records`` rejects a schema-1 file, written when every trial drew
from a seed of its own, the file's ``seed`` column.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import orjson

from .sequence import RecordSet

SCHEMA_VERSION = 2
# the bytes the cells of a plain data row may hold
_PLAIN_CELL = b"0123456789.,-+eE"
# a cell "-0", in a row or in a file: JSON reads it as the integer 0,
# numpy as -0.0
_MINUS_ZERO = re.compile(rb"-0(?![^,\r\n])")


class RecordIOError(ValueError):
    """Raised for unreadable files or schema mismatches."""


def _sidecar(path: Path) -> Path:
    return Path(str(path) + ".meta.json")


def params_hash(params: dict) -> str:
    canonical = json.dumps(params, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _repeated(header: list[str]) -> str | None:
    """The first name that ``header`` holds twice, or None."""
    return next((name for i, name in enumerate(header)
                 if name in header[:i]), None)


def _leading(labels: list[str]) -> list[str]:
    """The columns of a record file before its ``true_jz`` traces."""
    return (["trial", *labels, "omega_p_offset_hz"]
            + [f"{lb}_freq_hz" for lb in labels])


def _rows(matrix: np.ndarray) -> list[bytes]:
    """Each row of a float64 matrix as its cells' ``repr`` joined by commas.

    One ``orjson`` call writes every cell; its shortest round-trip digits
    are ``repr``'s on every cell that is +-0.0 or has a magnitude in
    [1e-4, 1e16).  A row holding any other cell is spelled by ``repr``:
    orjson writes ``1e16``, ``0.00002`` and ``null`` where ``repr`` writes
    ``1e+16``, ``2e-05`` and ``nan``.
    """
    if len(matrix) == 0:
        return []
    rows = orjson.dumps(np.ascontiguousarray(matrix),
                        option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    magnitude = np.abs(matrix)
    plain = (((magnitude >= 1e-4) & (magnitude < 1e16))
             | (magnitude == 0.0))
    for k in np.flatnonzero(~plain.all(axis=1)).tolist():
        rows[k] = ",".join(map(repr, matrix[k].tolist())).encode()
    return rows


def write_records(rs: RecordSet, path) -> None:
    path = Path(path)
    labels = list(rs.labels)
    header = _leading(labels) + [f"true_jz_{i + 1}"
                                 for i in range(rs.true_jz.shape[1])]
    if (name := _repeated(header)) is not None:
        raise RecordIOError(f"{path}: probe label {name!r} is also the name "
                            "of another column of the record file")
    head = io.StringIO()
    csv.writer(head).writerow(header)
    # a number needs no quoting, so a row is its cells joined the way
    # csv.writer joins them
    body = b"".join([b"%d,%b\r\n" % row for row in enumerate(_rows(
        np.column_stack((rs.n_up, rs.omega_p_offset_hz, rs.freq_hz,
                         rs.true_jz))))])

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n".encode())
        fh.write(head.getvalue().encode())
        fh.write(body)

    meta = {
        "schema": SCHEMA_VERSION,
        "master_seed": rs.master_seed,
        "n_trials": len(rs),
        "labels": labels,
        "params": rs.params,
        "content_hash": params_hash(rs.params),
        "created": datetime.now(timezone.utc).isoformat(),
    }
    with open(_sidecar(path), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _joined(rows: list[bytes], odd: list[int], other: dict[int, list[str]],
            zeros: bytes) -> bytes:
    """The rows as one JSON array between two rows of zeros, once each row
    of ``odd`` has gone to ``other`` split at its commas, leaving zeros."""
    for k in odd:
        other[k] = rows[k].decode().split(",") if rows[k] else []
        rows[k] = zeros
    return b"],[".join([b"[[" + zeros, *rows, zeros + b"]]"])


def _json(row: bytes) -> list | None:
    """The numbers of a row of plain bytes, or None if JSON rejects it."""
    try:
        return orjson.loads(b"[%b]" % row)
    except ValueError:  # not JSON, or a number beyond float64
        return None


def _table(path: Path, labels: list[str], n_trials: int) -> tuple:
    """The header of a record file, its data rows as float64, the cells of
    each row that is not plain, whose float64 row reads 0, by row index,
    and a function naming the file and line of a row by its index; or an
    error naming what is wrong, short of a cell that is no number."""
    with open(path, "rb") as fh:
        data = fh.read()
    # read as text, whose universal newlines end lines as splitlines does
    head = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    first = head.readline().strip()
    if not first.startswith("# schema="):
        raise RecordIOError(f"{path}, line 1: missing '# schema=' "
                            "comment line")
    if first != f"# schema={SCHEMA_VERSION}":
        raise RecordIOError(f"{path}, line 1: unsupported schema "
                            f"{first[len('# schema='):]!r}")
    reader = csv.reader(head)
    header = next(reader, None)
    if header is None:
        raise RecordIOError(f"{path}: missing CSV header row")
    if (name := _repeated(header)) is not None:
        raise RecordIOError(f"{path}, line 2: column {name!r} appears "
                            "more than once")
    for name in _leading(labels):
        if name not in header:
            raise RecordIOError(
                f"{path}, line 2: missing column {name!r} (sidecar labels: "
                f"{', '.join(labels) or 'none'})")
    skip = 1 + reader.line_num  # the schema line and the header's lines

    def where(k: int) -> str:
        return f"{path}, line {skip + 1 + k}"

    # the bytes no plain row holds, the header's too, are counted before the
    # split, and each copy is freed once the next is made, to save memory
    odd = len(data.translate(None, _PLAIN_CELL + b"\r\n"))
    minus_zero = _MINUS_ZERO.search(data)
    rows = data.splitlines()
    del data, head, reader
    odd -= len(b"".join(rows[:skip]).translate(None, _PLAIN_CELL))
    del rows[:skip]
    if len(rows) != n_trials:
        raise RecordIOError(f"{path}: {len(rows)} data rows, but the "
                            f"sidecar says n_trials = {n_trials}")

    width = len(header)
    zeros = b",".join([b"0"] * width)
    other: dict[int, list[str]] = {}
    # the rows are looked at one by one only when some row is not plain
    text = _joined(rows, [k for k, row in enumerate(rows)
                          if row.translate(None, _PLAIN_CELL)
                          or (minus_zero and _MINUS_ZERO.search(row))]
                   if odd or minus_zero else [], other, zeros)
    del rows
    try:
        cells = orjson.loads(text)
    except ValueError:  # a row of plain bytes that is not JSON
        # the rows left hold plain bytes only, so none holds a "],["
        rows = text.split(b"],[")[1:-1]
        text = _joined(rows, [k for k, row in enumerate(rows)
                              if _json(row) is None], other, zeros)
        cells = orjson.loads(text)
    del text
    lengths = {k: len(row) for k, row in other.items()}
    try:
        matrix = np.array(cells, dtype=np.float64)[1:-1]
    except ValueError:  # a plain row whose cells do not match the columns
        lengths = {k: len(row) for k, row in enumerate(cells[1:-1])} | lengths
    for k in sorted(lengths):
        if lengths[k] != width:
            raise RecordIOError(
                f"{where(k)}: {lengths[k]} cells, but the header has {width} "
                "columns")
    return header, matrix, dict(sorted(other.items())), where


def _parse(where, names: list[str], rows: dict[int, list[str]]
           ) -> np.ndarray:
    """The cells of the given rows, each row's cells in the named columns
    by its row index, as one float64 array with a row per given row; or an
    error naming the first cell, column by column, that is not a number,
    where ``where`` names the file and line of a row by its index."""
    try:
        return np.array(list(rows.values()), dtype=np.float64)
    except (ValueError, OverflowError):
        for name, column in zip(names, zip(*rows.values())):
            for k, cell in zip(rows, column):
                try:
                    np.array(cell, dtype=np.float64)
                except (ValueError, OverflowError):
                    raise RecordIOError(
                        f"{where(k)}, column {name!r}: {cell!r} is not a "
                        "float64 value") from None
        raise


def _undecodable(path: Path) -> RecordIOError:
    """The error naming the first line of a record file that is not UTF-8."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for n, line in enumerate(lines, start=1):
        try:
            line.decode()
        except UnicodeDecodeError as exc:
            return RecordIOError(f"{path}, line {n}: byte "
                                 f"{line[exc.start]:#04x} is not UTF-8 text")


def read_records(path) -> RecordSet:
    path = Path(path)
    if not path.exists():
        raise RecordIOError(f"no record file at {path}")
    meta_path = _sidecar(path)
    if not meta_path.exists():
        raise RecordIOError(f"missing metadata sidecar {meta_path}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except ValueError as exc:
        raise RecordIOError(f"{meta_path}: not JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise RecordIOError(f"{meta_path}: not a JSON object")
    if meta.get("schema") == 1:
        raise RecordIOError(
            f"{path}: schema 1 records were written under the per-trial "
            f"seed contract, which no longer holds; rerun the command to "
            f"write schema {SCHEMA_VERSION}")
    if meta.get("schema") != SCHEMA_VERSION:
        raise RecordIOError(f"{meta_path}: unsupported schema "
                            f"{meta.get('schema')!r}")
    for key in ("labels", "master_seed", "n_trials", "params"):
        if key not in meta:
            raise RecordIOError(f"{meta_path}: no {key!r} entry")
    labels, master_seed = meta["labels"], meta["master_seed"]
    strings = isinstance(labels, list) and all(
        isinstance(label, str) for label in labels)
    twice = _repeated(labels) if strings else None
    # a JSON integer loads as an int, and true and false as bools
    for key, ok, rule in (
            ("labels", strings, "a list of strings"),
            ("labels", twice is None,
             f"a list of strings that names {twice!r} once"),
            ("master_seed", master_seed is None or type(master_seed) is int,
             "null or an integer"),
            ("n_trials", type(meta["n_trials"]) is int
             and meta["n_trials"] >= 0, "an integer >= 0"),
            ("params", isinstance(meta["params"], dict), "a JSON object")):
        if not ok:
            raise RecordIOError(f"{meta_path}: {key!r} entry must be {rule} "
                                f"(got {meta[key]!r})")

    try:
        header, matrix, other, where = _table(path, labels, meta["n_trials"])
    except UnicodeDecodeError:
        raise _undecodable(path) from None

    def floats(names: list[str]) -> np.ndarray:  # trials x names
        idx = [header.index(name) for name in names]
        out = matrix[:, idx]
        if other:
            out[list(other)] = _parse(where, names, {
                k: [cells[i] for i in idx] for k, cells in other.items()})
        return out

    trial = floats(["trial"])[:, 0]
    wrong = np.flatnonzero(trial != np.arange(len(trial)))
    if wrong.size:
        k = int(wrong[0])
        raise RecordIOError(f"{where(k)}, column 'trial': "
                            f"{float(trial[k])} where {k} belongs; "
                            "the column must read 0, 1, ..., n - 1 in order")
    leading = _leading(labels)
    traces = [name for name in header
              if name.startswith("true_jz_") and name not in leading]
    return RecordSet.from_columns(
        meta["params"], master_seed,
        labels=labels, omega_p_offset_hz=floats(["omega_p_offset_hz"])[:, 0],
        n_up=floats(labels),
        freq_hz=floats([f"{lb}_freq_hz" for lb in labels]),
        true_jz=floats(traces))
