"""Lossless trial-record persistence: CSV rows plus a JSON metadata sidecar.

The CSV starts with a ``# schema=2`` comment, then a header row.  Columns
for a record set with probe labels L1..Lk::

    trial, L1, ..., Lk, omega_p_offset_hz,
    L1_freq_hz, ..., Lk_freq_hz, true_jz_1, ..., true_jz_m

``trial`` is the trial's index in the run; with the sidecar's master seed
it names the trial, whose chunk is ``trial // sequence.CHUNK_TRIALS``.
Every other file column is a column of one of the ``RecordSet``'s
arrays: the k-th label's columns are the k-th column of ``n_up`` and of
``freq_hz``, and ``true_jz_j`` is the j-th column of ``true_jz``.  Both
functions work on those arrays and build no ``TrialRecord``.  Every
float cell is spelled as ``repr`` spells it (shortest round-trip form), so
``read_records(write_records(rs)) == rs`` bit-exactly; the writer gets
most cells from one ``orjson`` call (see :func:`_rows`).  Numbers are
never quoted, so the reader splits a data row at its commas; only the
header, whose labels may be quoted, goes through ``csv``.
The sidecar ``<path>.meta.json`` carries the parameter snapshot, the
master seed, the trial count, a content hash of the canonical parameter
text, and a timestamp (the only non-reproducible output field).
``read_records`` raises ``RecordIOError``, naming the file and where it
can the line and column, for a sidecar that is not a JSON object or
lacks an entry it reads or holds one of the wrong type, a schema line
other than ``# schema=2``, a header that names a column twice, a row
count that differs from the sidecar's, a row whose length differs from
the header's, a cell that is not a number, or a sidecar label with no
column.  ``write_records`` raises it, writing nothing, for a probe label
that is also the name of another column (``trial``,
``omega_p_offset_hz``, another label's ``_freq_hz`` column or a
``true_jz_`` column).  ``read_records`` rejects a schema-1 file, written
when every trial drew from a seed of its own, the file's ``seed`` column.
"""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import orjson

from .sequence import RecordSet

SCHEMA_VERSION = 2
# file line of the first data row: the schema comment, then the header
_FIRST_ROW_LINE = 3


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


def _rows(matrix: np.ndarray) -> list[str]:
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
                        option=orjson.OPT_SERIALIZE_NUMPY
                        )[2:-2].decode().split("],[")
    magnitude = np.abs(matrix)
    plain = (((magnitude >= 1e-4) & (magnitude < 1e16))
             | (magnitude == 0.0))
    for k in np.flatnonzero(~plain.all(axis=1)).tolist():
        rows[k] = ",".join(map(repr, matrix[k].tolist()))
    return rows


def write_records(rs: RecordSet, path) -> None:
    path = Path(path)
    labels = list(rs.labels)
    header = _leading(labels) + [f"true_jz_{i + 1}"
                                 for i in range(rs.true_jz.shape[1])]
    if (name := _repeated(header)) is not None:
        raise RecordIOError(f"{path}: probe label {name!r} is also the name "
                            "of another column of the record file")
    rows = _rows(np.column_stack(
        (rs.n_up, rs.omega_p_offset_hz, rs.freq_hz, rs.true_jz)))

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n")
        csv.writer(fh).writerow(header)
        # a number needs no quoting, so a row is its cells joined the way
        # csv.writer joins them
        fh.writelines(f"{k},{row}\r\n" for k, row in enumerate(rows))

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


def _parse(path: Path, names: list[str], cells: list[tuple]) -> np.ndarray:
    """The named columns' cells as one float64 array, a row per column, or
    an error naming the first cell that is not a number."""
    try:
        return np.array(cells, dtype=np.float64)
    except (ValueError, OverflowError):
        for name, column in zip(names, cells):
            for k, cell in enumerate(column):
                try:
                    np.array(cell, dtype=np.float64)
                except (ValueError, OverflowError):
                    raise RecordIOError(
                        f"{path}, line {_FIRST_ROW_LINE + k}, column "
                        f"{name!r}: {cell!r} is not a float64 value") from None
        raise


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
    # a JSON integer loads as an int, and true and false as bools
    for key, ok, rule in (
            ("labels", isinstance(labels, list) and all(
                isinstance(label, str) for label in labels),
             "a list of strings"),
            ("master_seed", master_seed is None or type(master_seed) is int,
             "null or an integer"),
            ("n_trials", type(meta["n_trials"]) is int
             and meta["n_trials"] >= 0, "an integer >= 0"),
            ("params", isinstance(meta["params"], dict), "a JSON object")):
        if not ok:
            raise RecordIOError(f"{meta_path}: {key!r} entry must be {rule} "
                                f"(got {meta[key]!r})")

    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if not first.startswith("# schema="):
            raise RecordIOError(f"{path}, line 1: missing '# schema=' "
                                "comment line")
        if first != f"# schema={SCHEMA_VERSION}":
            raise RecordIOError(f"{path}, line 1: unsupported schema "
                                f"{first[len('# schema='):]!r}")
        header = next(csv.reader(fh), None)
        if header is None:
            raise RecordIOError(f"{path}: missing CSV header row")
        # a number is never quoted: a data row is its line split at commas,
        # and an empty line has no cells, as csv.reader reads them
        rows = [line.split(",") if line else []
                for line in (text.rstrip("\r\n") for text in fh)]
    if (name := _repeated(header)) is not None:
        raise RecordIOError(f"{path}, line {_FIRST_ROW_LINE - 1}: column "
                            f"{name!r} appears more than once")

    required = _leading(labels)
    col: dict[str, int] = {name: i for i, name in enumerate(header)}
    for name in required:
        if name not in col:
            raise RecordIOError(
                f"{path}, line {_FIRST_ROW_LINE - 1}: missing column "
                f"{name!r} (sidecar labels: {', '.join(labels) or 'none'})")
    if len(rows) != meta["n_trials"]:
        raise RecordIOError(f"{path}: {len(rows)} data rows, but the "
                            f"sidecar says n_trials = {meta['n_trials']}")
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise RecordIOError(
                f"{path}, line {_FIRST_ROW_LINE + k}: {len(row)} cells, but "
                f"the header has {len(header)} columns")
    cells = list(zip(*rows)) or [()] * len(header)

    def floats(names: list[str]) -> np.ndarray:  # trials x names
        return _parse(path, names, [cells[col[name]] for name in names]
                      ).reshape(len(names), len(rows)).T

    traces = [name for name in header
              if name.startswith("true_jz_") and name not in required]
    return RecordSet.from_columns(
        meta["params"], master_seed,
        labels=labels, omega_p_offset_hz=floats(["omega_p_offset_hz"])[:, 0],
        n_up=floats(labels),
        freq_hz=floats([f"{lb}_freq_hz" for lb in labels]),
        true_jz=floats(traces))
