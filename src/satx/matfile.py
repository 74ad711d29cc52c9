"""Line-oriented text format for matrices.

Diff-friendly and language-neutral: a small header (kind, dimensions,
labels, optional note) followed by row-major entries, one row per line,
serialized with 17 significant digits so export/import round-trips are
bit-exact.
"""

from __future__ import annotations

import math
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MatrixFileError

MAGIC = "satx-matrix 1"
KINDS = ("encoding", "transcoding", "decoder_to_speaker")


@dataclass(frozen=True)
class MatrixFile:
    """A matrix with its kind and labels; empty labels become r0.. / c0..

    The entry count is checked before any default label is made, so a
    header declaring a huge size fails without allocating for it.
    """

    kind: str
    rows: int
    cols: int
    row_labels: tuple
    col_labels: tuple
    entries: tuple  # row-major floats
    note: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MatrixFileError(f"unknown matrix kind {self.kind!r}")
        if self.rows * self.cols != len(self.entries):
            raise MatrixFileError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        for attr, prefix, count, what in (
            ("row_labels", "r", self.rows, "row"),
            ("col_labels", "c", self.cols, "column"),
        ):
            labels = getattr(self, attr) or tuple(
                f"{prefix}{i}" for i in range(count)
            )
            object.__setattr__(self, attr, labels)
            if len(labels) != count:
                raise MatrixFileError(f"expected {count} {what} labels")
            if len(set(labels)) != len(labels):
                raise MatrixFileError(f"{what} labels must be unique")
            for label in labels:
                if not label or any(c.isspace() for c in label):
                    raise MatrixFileError(f"bad {what} label {label!r}")
        if "\n" in self.note:
            raise MatrixFileError("note must be a single line")

    def values(self) -> np.ndarray:
        return np.array(self.entries, dtype=float).reshape(self.rows, self.cols)


def matrix_file(values, kind: str = "transcoding", row_labels=None,
                col_labels=None, note: str = "") -> MatrixFile:
    """A finite 2-D matrix as a ``MatrixFile``, ready to export."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise MatrixFileError("matrix must be 2-D")
    if not np.isfinite(values).all():
        raise MatrixFileError("matrix entries must be finite")
    rows, cols = values.shape
    return MatrixFile(
        kind=kind,
        rows=rows,
        cols=cols,
        row_labels=tuple(row_labels or ()),
        col_labels=tuple(col_labels or ()),
        entries=tuple(float(x) for x in values.ravel()),
        note=note,
    )


def format_matrix(m: MatrixFile) -> str:
    lines = [
        MAGIC,
        f"kind {m.kind}",
        f"rows {m.rows}",
        f"cols {m.cols}",
        "row_labels " + " ".join(m.row_labels),
        "col_labels " + " ".join(m.col_labels),
    ]
    if m.note:
        lines.append(f"note {m.note}")
    values = m.values()
    for r in range(m.rows):
        lines.append(" ".join(f"{x:.17g}" for x in values[r]))
    return "\n".join(lines) + "\n"


@contextmanager
def atomic_output(path, mode: str = "w"):
    """Yield a handle on a new file beside ``path``; rename it onto ``path``
    when the block ends, or remove it if the block raises.

    The file is created like ``open(path, mode)`` would create it (the
    process umask applies), so a crash never leaves a partial ``path``.
    An ``OSError`` from creating, writing or renaming the file becomes a
    ``ConfigError`` naming ``path``.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".satx-tmp-{uuid.uuid4().hex}")
    try:
        handle = open(tmp, mode.replace("w", "x"))
        try:
            with handle:
                yield handle
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    with atomic_output(path) as handle:
        handle.write(text)


def export_matrix(m: MatrixFile, path) -> None:
    write_text_atomic(path, format_matrix(m))


def parse_matrix(text: str) -> MatrixFile:
    lines = [line.rstrip("\n") for line in text.splitlines()]
    if not lines or lines[0].strip() != MAGIC:
        raise MatrixFileError(f"missing header line {MAGIC!r}")
    header = {}
    body_start = None
    for i, line in enumerate(lines[1:], start=1):
        stripped = line.strip()
        if not stripped:
            continue
        key = stripped.split(None, 1)[0]
        if key in ("kind", "rows", "cols", "row_labels", "col_labels", "note"):
            if key in header:
                raise MatrixFileError(f"duplicate header key {key!r}")
            header[key] = stripped[len(key):].strip()
        else:
            body_start = i
            break
    for required in ("kind", "rows", "cols"):
        if required not in header:
            raise MatrixFileError(f"missing header key {required!r}")
    if body_start is None:
        raise MatrixFileError("no matrix entries found")
    try:
        rows = int(header["rows"])
        cols = int(header["cols"])
    except ValueError as exc:
        raise MatrixFileError("rows/cols must be integers") from exc
    if rows < 1 or cols < 1:
        raise MatrixFileError("rows and cols must be positive")
    entries = []
    ragged = None  # the first body line whose entry count is not cols
    for number, line in enumerate(lines[body_start:], start=body_start + 1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            row = [float(tok) for tok in stripped.split()]
        except ValueError as exc:
            raise MatrixFileError(
                f"line {number}: bad numeric entry in {stripped!r}"
            ) from exc
        if not all(math.isfinite(x) for x in row):
            raise MatrixFileError(
                f"line {number}: non-finite entry in {stripped!r}"
            )
        if ragged is None and len(row) != cols:
            ragged = f"line {number}: {len(row)} entries, expected {cols}"
        entries.extend(row)
    m = MatrixFile(
        kind=header["kind"],
        rows=rows,
        cols=cols,
        row_labels=tuple(header.get("row_labels", "").split()),
        col_labels=tuple(header.get("col_labels", "").split()),
        entries=tuple(entries),
        note=header.get("note", ""),
    )
    if ragged:  # after the entry count, which a huge declared size fails
        raise MatrixFileError(ragged)
    return m


def import_matrix(path) -> MatrixFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise MatrixFileError(f"cannot read matrix file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"matrix file {path} is not UTF-8 text: "
                              f"{exc}") from exc
    try:
        return parse_matrix(text)
    except MatrixFileError as exc:
        raise MatrixFileError(f"matrix file {path}: {exc}") from exc
