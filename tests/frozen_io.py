"""Frozen CSV table readers: the oracle for io.read_detection_columns and io.read_track_columns.

A verbatim copy of the per-field readers that one numpy tokenizer pass
replaced: they split a file's data lines into columns and parse each
field with int or float.  Kept so tests can check the readers against
them, block for block and error for error.  Do not edit it along with
the package.  (One known difference: a frame index beyond the float
range gives "int too large to convert to float" here.)
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from uatrack.boxes import MAX_FRAME_INDEX, DetectionColumns, TrackColumns, first_bad_row
from uatrack.io import DET_COLUMNS, DET_COLUMNS_VAR, FORMAT_VERSION_LINE, TRACK_COLUMNS, FormatError
from uatrack.motion import wrap_angles


class _Faults:
    """The first bad row of a table whose checks run column by column.

    Checks are made in the order a row-by-row reader makes them: the
    earliest bad row wins, and within a row the check made first, so the
    error is the one a row-by-row reader would raise.
    """

    def __init__(self, path: str | Path, lines: list[str], n_rows: int):
        self.path, self.lines, self.n_rows = path, lines, n_rows  # the data lines, blank ones too
        self.row, self.message = n_rows, ""

    def note(self, row: int, message: str) -> None:
        if row < self.row:
            self.row, self.message = row, message

    def check(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """Note the first row where `bad` holds; message(row) says what is wrong with it."""
        hits = np.flatnonzero(bad[: self.row])
        if len(hits):
            self.note(int(hits[0]), message(int(hits[0])))

    def lineno(self, row: int) -> int:
        """The line number of the row-th non-blank data line."""
        return next(islice((n for n, line in enumerate(self.lines, start=3) if line.strip()), row, None))

    def raise_first(self) -> None:
        """Raise FormatError naming the first bad row's path:line, if there is one."""
        if self.row < self.n_rows:
            raise FormatError(f"{self.path}:{self.lineno(self.row)}: {self.message}")


def _read_table(path: str | Path, headers: list[list[str]]) -> tuple[list[list[str]], _Faults]:
    """The columns of a versioned table with one of the given headers, and the faults of its rows.

    Blank lines are skipped.  A file that is not UTF-8 text, or a row
    without the header's field count, raises FormatError naming its
    path (and line).
    """
    try:
        text = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not text or text[0].strip() != FORMAT_VERSION_LINE:
        raise FormatError(f"{path}: missing version line {FORMAT_VERSION_LINE!r}")
    header = text[1].strip() if len(text) > 1 else ""
    if header not in [",".join(columns) for columns in headers]:
        raise FormatError(f"{path}: unrecognized header {header!r}")
    want = header.count(",") + 1
    lines = text[2:]
    rows = [line for line in lines if line.strip()]
    faults = _Faults(path, lines, len(rows))
    commas = np.fromiter(map(str.count, rows, repeat(",")), np.intp, len(rows))
    bad = np.flatnonzero(commas != want - 1)
    if len(bad):
        row = int(bad[0])
        raise FormatError(f"{path}:{faults.lineno(row)}: expected {want} fields, got {commas[row] + 1}")
    fields = ",".join(rows).split(",") if rows else []
    return [fields[k::want] for k in range(want)], faults


def _parsed(column: list[str], parse: Callable[[str], object], faults: _Faults, dtype=float) -> np.ndarray:
    """Each text of the column parsed by `parse`; the first it rejects is a fault, and holds 0 as every later row does."""
    try:
        return np.fromiter(map(parse, column), dtype, len(column))
    except (ValueError, OverflowError):
        pass
    out = np.zeros(len(column), dtype)
    for row, text in enumerate(column):
        try:
            out[row] = parse(text)
        except (ValueError, OverflowError) as exc:
            faults.note(row, str(exc))
            break
    return out


def _frame_fault(frame: int) -> str:
    return f"negative frame index {frame}" if frame < 0 else f"frame index {frame} above the maximum {MAX_FRAME_INDEX}"


def _frames(column: list[str], faults: _Faults) -> np.ndarray:
    """The frame column as int64, each text parsed by int; an index outside [0, MAX_FRAME_INDEX] is a fault."""
    frame = _parsed(column, int, faults)  # as float64, exact for every index in range
    faults.check((frame < 0) | (frame > MAX_FRAME_INDEX), lambda row: _frame_fault(int(column[row])))
    return frame.clip(-1, MAX_FRAME_INDEX + 1).astype(np.int64)


def _floats(columns: list[list[str]], faults: _Faults) -> np.ndarray:
    """The columns, each text parsed by float, as an (n, k) block."""
    return np.column_stack([_parsed(column, float, faults) for column in columns])


def read_detection_columns(path: str | Path) -> DetectionColumns:
    """A detection file as columns, every row checked.

    Each field is parsed by int or float; frame indices must lie in
    [0, MAX_FRAME_INDEX], box values and scores be finite, extents and
    variances positive.  The first bad row raises FormatError naming
    its path:line.
    """
    columns, faults = _read_table(path, [DET_COLUMNS, DET_COLUMNS_VAR])
    frame = _frames(columns[0], faults)
    values = _floats(columns[2:], faults)
    var = values[:, 8:] if len(columns) == len(DET_COLUMNS_VAR) else None
    if bad := first_bad_row(values[:, :8], var):
        faults.note(*bad)
    faults.raise_first()
    values[:, 6] = wrap_angles(values[:, 6])
    return DetectionColumns(frame, np.array(columns[1], dtype=object), values[:, :8], var)


def read_track_columns(path: str | Path) -> TrackColumns:
    """A track file as columns, checked as read_detection_columns checks a detection file; an id appears at most once per frame.

    The block's arrays are read-only, so what is computed from it is
    kept with it (see TrackColumns.kept).
    """
    columns, faults = _read_table(path, [TRACK_COLUMNS])
    frame = _frames(columns[0], faults)
    values = _floats(columns[3:], faults)
    ids = _parsed(columns[1], int, faults, dtype=object)
    if bad := first_bad_row(values):
        faults.note(*bad)
    seen: set[tuple[int, int]] = set()
    for row, key in enumerate(zip(frame.tolist(), ids.tolist())):
        if key in seen:
            faults.note(row, f"id {key[1]} repeated in frame {key[0]}")
            break
        seen.add(key)
    faults.raise_first()
    values[:, 6] = wrap_angles(values[:, 6])
    return TrackColumns.sealed(frame, ids, np.array(columns[2], dtype=object), values)
