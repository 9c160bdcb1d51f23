"""File formats and run configuration.

Detections and tracks travel as versioned CSV files with a fixed header;
floats are printed with 9 significant digits.  That is exact for float32
but not for float64: a value read back may differ from the one written
by up to half a unit in its ninth significant digit.  A file written
here reads back and writes again to the same bytes; so the writer
refuses, with FormatError, a class name that holds a comma or a line
boundary str.splitlines splits at, which a reader would split into
fields or lines.

Every file uatrack writes opens through one opener, _replaced: it is
written to a hidden sibling renamed over its path once complete, so a
refusal midway leaves the path as it was, and a replaced file keeps its
permission bits.  One writer, _write_blocks, writes every detection and
track file (write_detections, write_tracks and, for `uatrack simulate`,
write_frames, a frame's blocks as the frame is drawn): each header
comes from the blocks' own columns, and rows are formatted and written
a batch at a time, so memory follows the data.  write_table writes
every other table.  One reader, _read_block, finishes the row block of
detection and track files.  It decodes a file a chunk of bytes at a
time and cuts it into the lines str.splitlines would cut the whole text
into (see _decoded, which KITTI label files are read through too), and
one C-level pass of numpy's tokenizer parses each batch of
data lines into int64 frames and ids, class text as written and float64
values, each bit for bit what int() and float() give.  Where numpy
refuses a line (a field that only int() or float() takes, a wrong field
count) or a field other than class is not plain ASCII, the per-field
path parses the batch's fields with int or float.  A batch's columns
are then checked at once (frame range, boxes.first_bad_row, an id
repeated in a frame, also in an earlier batch); the first bad row of the
file, by the order a row-by-row reader would check, raises FormatError
naming its path:line, and theta is wrapped.  Only the finished arrays
grow with the file, and a block's class column holds one str per
distinct name.  A detection file reads as boxes.DetectionColumns and a
track file as a read-only boxes.TrackColumns (both re-exported here,
both written back by the writer), arrays with one entry per row (the
form `uatrack nms` carries from reader to writer, `uatrack track` feeds
the tracker one frame block at a time, and `uatrack eval-det` and
`uatrack eval-track` score as row blocks, and the block `uatrack track`
writes as tracker.track_frames returns it), or as DetectionRecord rows
and (frame, id, box) rows.
Records reach the detection writer and detections_to_frames only as a
block, through DetectionColumns.of: records with and without a variance
raise FormatError.  KITTI object/tracking label files can be imported as
ground truth.  Run configuration is namespaced JSON with strict key
checking; its keys and defaults are the fields of the config
dataclasses, each stored under its own name and in its own form.

Axis convention: the internal frame is right-handed with z up and the
sensor at the origin.  KITTI camera coordinates (x right, y down,
z forward, yaw ry about y, location at the box bottom) map to it as

    x_internal = z_cam
    y_internal = -x_cam
    z_internal = -y_cam + h/2   (bottom center -> box center)
    theta      = -ry - pi/2     (wrapped)
"""

from __future__ import annotations

import codecs
import errno
import json
import locale
import math
import os
import sys
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import partial
from itertools import chain, islice, repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from .boxes import (BOX_FIELDS, MAX_FRAME_INDEX, Box3D, DetectionColumns, DetectionRecord, TrackColumns,
                    first_bad_row, wrap_angle)
from .metrics import EvalConfig
from .motion import wrap_angles
from .scoring import NmsConfig, ScoreMapConfig
from .sim import ScenarioConfig
from .tracker import TrackerConfig

FORMAT_VERSION_LINE = "# uatrack-v1"

# A box's columns: class, its BOX_FIELDS values, score.
_BOX_COLS = ["class", *BOX_FIELDS, "score"]
DET_COLUMNS = ["frame", *_BOX_COLS]
DET_COLUMNS_VAR = [*DET_COLUMNS, *(f"var_{name}" for name in BOX_FIELDS)]
TRACK_COLUMNS = ["frame", "id", *_BOX_COLS]

KITTI_SKIP_TYPES = {"DontCare"}


class FormatError(ValueError):
    """Raised when a file does not match the expected layout."""


_FLOAT_FORMAT = ".9g"

# Rows the writers format and write at a time, and lines the readers
# parse at a time: each bounds what a batch holds beside the data.
_BATCH = 1024
# Bytes the readers decode at a time.
_CHUNK = 1 << 16


def format_float(x: float) -> str:
    """A float printed with 9 significant digits, the precision of every emitted file."""
    return format(float(x), _FLOAT_FORMAT)


def write_table(path: str | Path | None, header: list[str], rows: Iterable[Iterable[str]]) -> None:
    """Write the version line, the header and each row's comma-joined cells, _BATCH rows at a time.

    A path is written through a sibling that replaces it once every row
    is written (see _replaced), so a row that raises leaves the path as
    it was; without a path the lines go to stdout as they are taken, and
    a caller that may refuse a row builds its rows before calling.
    """
    with _replaced(path) if path else nullcontext([sys.stdout]) as (out,):
        out.write(_head(header))
        rows = iter(rows)
        while batch := list(islice(rows, _BATCH)):
            out.write("".join([",".join(row) + "\n" for row in batch]))


def _head(header: list[str]) -> str:
    """The version line and the header, each ending in a newline."""
    return f"{FORMAT_VERSION_LINE}\n{','.join(header)}\n"


def _check_class_names(names: set[str]) -> None:
    """Raise FormatError for a class name a reader would split: one holding a comma or a line boundary."""
    for name in names:
        if "," in name or len(f"{name}.".splitlines()) > 1:  # a boundary splits off the appended "."
            raise FormatError(f"class name {name!r} holds a comma or a line break, which no reader takes back")


def _columns_of(records: Sequence[DetectionRecord]) -> DetectionColumns:
    """DetectionColumns.of(records); records with and without a variance raise FormatError."""
    try:
        return DetectionColumns.of(records)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_detections(path: str | Path, records: list[DetectionRecord] | DetectionColumns) -> None:
    """Write detection rows, given as records or as columns; variance columns are all-or-none (see _write_blocks)."""
    _write_blocks([path], [[_columns_of(records)]])


def write_tracks(path: str | Path, tracks: list[tuple[int, int, Box3D]] | TrackColumns) -> None:
    """Write track rows, given as (frame, track id, box) rows or as columns (see _write_blocks)."""
    if not isinstance(tracks, TrackColumns):  # the rows as one frame list of (id, box) pairs, then their own frames
        block = TrackColumns.of([[(track_id, box) for _, track_id, box in tracks]])
        tracks = replace(block, frame=np.array([frame for frame, _, _ in tracks], np.int64))
    _write_blocks([path], [[tracks]])


def write_frames(gt_path: str | Path, dets_path: str | Path,
                 frames: Iterable[tuple[TrackColumns, DetectionColumns]]) -> tuple[int, int]:
    """Write each frame's (truth, detections) blocks as it comes; returns the numbers of rows written.

    The files hold the bytes write_tracks and write_detections write for
    the frames' blocks one after another, and only the frame at hand is
    held (see _write_blocks).
    """
    none = TrackColumns.of([]), DetectionColumns.of([])  # a frame without rows: no frames still give both headers
    return tuple(_write_blocks([gt_path, dets_path], chain([none], frames)))


def _write_blocks(paths: list[str | Path], frames: Iterable[Sequence[TrackColumns | DetectionColumns]]) -> list[int]:
    """Write each frame's blocks, one per path, as the frame comes; returns the numbers of rows written to each path.

    The one writer of detection and track files.  A path's header is the
    columns of its first block with rows, or of its last block where
    none has rows: frame, id for a track block, class, the box fields,
    score, and the variances of a detection block with rows that carries
    them.  Every later block with rows must have the same columns, so a
    detection file's blocks carry variances all or none.  Each block's
    class names are checked first (see _check_class_names), and its rows
    are formatted and written _BATCH at a time (see _text).  Each path is
    written through a sibling that replaces it after the last frame (see
    _replaced), so where a block is refused or taking a frame raises, no
    path changes.
    """
    counts = [0] * len(paths)
    heads: list[tuple[list[str], str] | None] = [None] * len(paths)  # each file's header and line format, once set
    last: list[list[str] | None] = [None] * len(paths)  # each path's last block's header
    with _replaced(*paths) as files:
        for blocks in frames:
            for k, (out, block) in enumerate(zip(files, blocks, strict=True)):
                header, columns = _cells(block)
                last[k] = header
                if not len(block):
                    continue
                _check_class_names(set(block.class_id.tolist()))
                if heads[k] is None:
                    heads[k] = header, ",".join(["%s" if name in ("frame", "id", "class") else
                                                 "%" + _FLOAT_FORMAT for name in header]) + "\n"
                    out.write(_head(header))
                elif heads[k][0] != header:
                    raise FormatError("either every block carries variances or none does")
                for lo in range(0, len(block), _BATCH):
                    out.write(_text(heads[k][1], columns, lo))
                counts[k] += len(block)
        for out, head, header in zip(files, heads, last):
            if head is None:
                out.write(_head(header))
    return counts


def _cells(block: TrackColumns | DetectionColumns) -> tuple[list[str], list[np.ndarray]]:
    """A block's header and its arrays in header order; variances count only in a detection block with rows."""
    if isinstance(block, TrackColumns):
        return TRACK_COLUMNS, [block.frame, block.track_id, block.class_id, block.rows]
    if block.var is not None and len(block):
        return DET_COLUMNS_VAR, [block.frame, block.class_id, block.rows, block.var]
    return DET_COLUMNS, [block.frame, block.class_id, block.rows]


def _text(line: str, columns: list[np.ndarray], lo: int) -> str:
    """Rows lo to lo + _BATCH of the columns, (n,) or (n, k) arrays, each row %-formatted by line as one flat tuple.

    %-formatting prints what format_float prints.
    """
    cells = chain.from_iterable(np.atleast_2d(column[lo:lo + _BATCH].T).tolist() for column in columns)
    return "".join(map(line.__mod__, zip(*cells)))


@contextmanager
def _replaced(*paths: str | Path) -> Iterator[list[TextIO]]:
    """Text files whose bytes take the paths' places, in order, once the block ends without raising.

    The one opener of every file uatrack writes.  Each file is a sibling
    of its path, renamed over the path after the block and removed where
    the block raises, so a path holds its old bytes or all of the new
    ones.  A path that is a regular file keeps its permission bits but
    not its hard links or owner, and one the user cannot write is
    refused as opening it would be.  A path that exists and is not a
    regular file (a directory, a device) is opened as it is, and a
    symbolic link's target is replaced, not the link.  An error opening
    a file names its path, as opening the path would.
    """
    opened: list[tuple[TextIO, str]] = []  # (file, the path it takes the place of)
    try:
        for k, path in enumerate(paths):  # k tells apart the siblings of a path given twice
            target = os.path.realpath(path)
            kept = os.path.isfile(target)  # an existing file whose mode the new one keeps
            temp = (target if os.path.exists(target) and not kept else
                    os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.{k}.partial"))
            try:
                if kept and not os.access(target, os.W_OK):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
                opened.append((open(temp, "w"), target))
                if kept:
                    os.chmod(opened[-1][0].fileno(), os.stat(target).st_mode & 0o7777)  # the permission bits
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from None
        yield [file for file, _ in opened]
        for file, _ in opened:
            file.close()
    except BaseException:
        for file, target in opened:
            file.close()
            if file.name != target:
                os.unlink(file.name)
        raise
    for file, target in opened:
        if file.name != target:
            os.replace(file.name, target)


class _Faults:
    """The first bad row of a batch of rows whose checks run column by column.

    Checks are made in the order a row-by-row reader makes them: the
    earliest bad row wins, and within a row the check made first, so the
    error is the one a row-by-row reader would raise.
    """

    def __init__(self, path: str | Path, lines: list[str], n_rows: int, start: int):
        self.path, self.lines, self.n_rows = path, lines, n_rows  # the batch's data lines, blank ones too
        self.start = start  # the line number of lines[0]
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
        return next(islice((n for n, line in enumerate(self.lines, start=self.start) if line.strip()), row, None))

    def first(self) -> str | None:
        """The first bad row's path:line and what is wrong with it, or None where every row is good."""
        return f"{self.path}:{self.lineno(self.row)}: {self.message}" if self.row < self.n_rows else None


def _decoded(path: str | Path, parse: Callable, *args):
    """parse(path, the file's lines (see _lines), *args); a decoding error anywhere in the file wins over a FormatError.

    A parser that stops at a bad line leaves the rest undecoded, so the
    rest is decoded before its FormatError goes on.
    """
    lines = chain.from_iterable(_lines(path))
    try:
        return parse(path, lines, *args)
    except FormatError:
        for _ in lines:  # a decoding error later in the file wins, as when the whole text was decoded first
            pass
        raise


def _read_block(path: str | Path, lines: Iterator[str], headers: list[list[str]]) -> tuple[np.ndarray | None, ...]:
    """A versioned table's lines, with one of the given headers, as finished arrays, every row checked.

    Returns the int64 frames, the ids as Python ints (None without an id
    column), the class names (one str per distinct name), the (n, 8)
    rows with theta wrapped by motion.wrap_angles, and the (n, 7)
    variances (None without variance columns).  Read through _decoded,
    the file is decoded _CHUNK bytes at a time (see _lines) and parsed
    _BATCH lines at a time, so beside the arrays only a batch is held.
    Blank lines are skipped.  A batch's rows are parsed in one pass of
    numpy's tokenizer (see _loaded), given only rows whose fields other
    than class are ASCII without U+001F (see _plain).  Where it is not
    given the rows or refuses one, the per-field path parses each field
    with int or float instead, and a row without the header's field
    count raises FormatError naming its path:line at once.  The rows must
    pass first_bad_row, and an id appear at most once per frame: the
    first bad row raises FormatError naming its path:line once every
    batch is parsed.  A file that is not UTF-8 text raises FormatError
    naming its path, whatever else is wrong with it.
    """
    version, header = next(lines, None), next(lines, "")
    if version is None or version.strip() != FORMAT_VERSION_LINE:
        raise FormatError(f"{path}: missing version line {FORMAT_VERSION_LINE!r}")
    if header.strip() not in [",".join(columns) for columns in headers]:
        raise FormatError(f"{path}: unrecognized header {header.strip()!r}")
    header = header.strip().split(",")
    at, has_id, n_values = header.index("class"), "id" in header, len(header) - header.index("class") - 1
    frames, ids, names, boxes, variances = [], [], [], [], []
    fault, start = None, 3  # the file's first bad row, and the line number of the batch's first line
    seen: set[tuple[int, int]] = set()  # every (frame, id) of the rows before the batch
    shared: dict[str, str] = {}  # one str per distinct class name
    while batch := list(islice(lines, _BATCH)):
        rows = [line for line in batch if line.strip()]
        faults = _Faults(path, batch, len(rows), start)
        start += len(batch)
        if not rows:
            continue
        table = _loaded(rows, header) if _plain(rows, at) else None
        if table is not None:
            frame = np.ascontiguousarray(table["frame"])
            faults.check((frame < 0) | (frame > MAX_FRAME_INDEX), lambda row: _frame_fault(int(frame[row])))
            batch_ids = table["id"].astype(object) if has_id else None  # each id a Python int
            classes, values = table["class"].tolist(), table["values"]
        else:
            columns = _columns(rows, len(header), faults)
            frame = _parsed(columns[0], _frame_index, faults, dtype=np.int64)
            values = np.column_stack([_parsed(column, float, faults) for column in columns[at + 1:]])
            batch_ids = _parsed(columns[header.index("id")], int, faults, dtype=object) if has_id else None
            classes = columns[at]
        if bad := first_bad_row(values[:, :8], values[:, 8:] if n_values > 8 else None):
            faults.note(*bad)
        if has_id and fault is None:
            for row, key in enumerate(zip(frame.tolist(), batch_ids.tolist())):
                if key in seen:
                    faults.note(row, f"id {key[1]} repeated in frame {key[0]}")
                    break
                seen.add(key)
        fault = fault or faults.first()
        if fault is None:  # after a bad row, a later batch matters only for a wrong field count
            frames.append(frame)
            ids.append(batch_ids)
            names.append(np.fromiter(map(shared.setdefault, classes, classes), object, len(classes)))
            boxes.append(values[:, :8].copy())
            variances.append(values[:, 8:].copy())
    if fault:
        raise FormatError(fault)
    rows = _joined(boxes, np.empty((0, 8)))
    rows[:, 6] = wrap_angles(rows[:, 6])
    return (_joined(frames, np.empty(0, np.int64)), _joined(ids, np.empty(0, object)) if has_id else None,
            _joined(names, np.empty(0, object)), rows,
            _joined(variances, np.empty((0, n_values - 8))) if n_values > 8 else None)


def _joined(parts: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
    """The parts one after another (`empty` where there are none); the list is emptied, so each part can be freed."""
    out = np.concatenate(parts) if parts else empty
    parts.clear()
    return out


def _lines(path: str | Path) -> Iterator[list[str]]:
    """The file's lines, as str.splitlines cuts its text, decoded _CHUNK bytes at a time: a list per chunk.

    A file the locale's encoding (the one Path.read_text uses) does not
    decode raises FormatError naming its path, with the byte positions
    that decoding the whole file gives.
    """
    decoder = codecs.getincrementaldecoder(locale.getpreferredencoding(False))()
    with open(path, "rb") as file:
        rest, done = "", 0  # the text after the last whole line, and the bytes decoded before this chunk
        while data := file.read(_CHUNK):
            try:
                text = rest + decoder.decode(data)
            except UnicodeDecodeError as exc:  # exc.object is the decoder's held bytes, then data
                raise _not_text(path, exc, done + len(data) - len(exc.object)) from None
            done += len(data)
            # the text up to the last line boundary; the line after it may go on in the next chunk
            cut = text.rfind("\n") + 1 or len(text) - len((text.splitlines(keepends=True) or [""])[-1])
            yield text[:cut].splitlines()
            rest = text[cut:]
        try:
            yield (rest + decoder.decode(b"", final=True)).splitlines()
        except UnicodeDecodeError as exc:
            raise _not_text(path, exc, done - len(exc.object)) from None


def _not_text(path: str | Path, exc: UnicodeDecodeError, shift: int) -> FormatError:
    """FormatError naming path for exc, its byte positions moved on by shift, as str(exc) would print them."""
    start, end = exc.start + shift, exc.end + shift
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if exc.end == exc.start + 1 else
             f"bytes in position {start}-{end - 1}")
    return FormatError(f"{path}: not UTF-8 text: '{exc.encoding}' codec can't decode {where}: {exc.reason}")


def _plain(rows: list[str], at: int) -> bool:
    """Whether every field of the rows but field `at`, the class, is ASCII without U+001F.

    Only such rows may go to numpy's tokenizer: its int parser reads a
    non-ASCII character through C's isdigit, out of that table's bounds,
    and it strips U+001F from a number as whitespace, which int() and
    float() reject.  It keeps class text as written, whatever it holds.
    Only the rows that are not all ASCII, or hold U+001F, are split.
    """
    text = "".join(rows)
    if text.isascii() and "\x1f" not in text:
        return True
    for row in [row for row in rows if not row.isascii() or "\x1f" in row]:
        fields = row.split(",")
        numbers = ",".join(fields[:at] + fields[at + 1:])
        if not numbers.isascii() or "\x1f" in numbers:
            return False
    return True


def _loaded(rows: list[str], header: list[str]) -> np.ndarray | None:
    """The rows as records from one pass of numpy's tokenizer; None where it refuses a row or warns.

    The columns before `class` parse as int64, `class` as its text as
    written, and the rest as one float64 `values` block.  numpy hands a
    float field's stripped ASCII text to the routine float() uses, so
    each value it takes is float()'s bit for bit, and each ASCII int
    field it takes is int()'s.  It refuses what int() and float() take
    beyond that (underscores, ids beyond int64) and rows of another
    field count; the per-field path then parses the rows.
    """
    n_ints = header.index("class")
    dtype = [*((name, np.int64) for name in header[:n_ints]), ("class", object),
             ("values", np.float64, len(header) - n_ints - 1)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an older numpy parses "3.0" as an int with only a DeprecationWarning
            return np.loadtxt(rows, dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except Exception:
        return None


def _columns(rows: list[str], n_fields: int, faults: _Faults) -> list[list[str]]:
    """The rows' fields as columns; a row without n_fields fields raises FormatError naming its path:line."""
    commas = np.fromiter(map(str.count, rows, repeat(",")), np.intp, len(rows))
    bad = np.flatnonzero(commas != n_fields - 1)
    if len(bad):
        row = int(bad[0])
        raise FormatError(f"{faults.path}:{faults.lineno(row)}: expected {n_fields} fields, got {commas[row] + 1}")
    fields = ",".join(rows).split(",") if rows else []
    return [fields[k::n_fields] for k in range(n_fields)]


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


def _frame_index(text: str) -> int:
    """A frame index; raises ValueError unless it is an integer in [0, MAX_FRAME_INDEX]."""
    frame = int(text)
    if not 0 <= frame <= MAX_FRAME_INDEX:
        raise ValueError(_frame_fault(frame))
    return frame


def read_detection_columns(path: str | Path) -> DetectionColumns:
    """A detection file as columns, every row checked.

    Each batch of data lines is parsed in one pass of numpy's tokenizer
    (see _loaded); where it refuses one, each field is parsed by int or
    float.  Frame indices must lie in [0, MAX_FRAME_INDEX], box values
    and scores be finite, extents and variances positive.  The first bad
    row raises FormatError naming its path:line (see _read_block).
    """
    frame, _, names, rows, var = _decoded(path, _read_block, [DET_COLUMNS, DET_COLUMNS_VAR])
    return DetectionColumns(frame, names, rows, var)


def read_detections(path: str | Path) -> list[DetectionRecord]:
    """A detection file's rows as DetectionRecords (see read_detection_columns)."""
    return list(read_detection_columns(path))


def detections_to_frames(records: Sequence[DetectionRecord]) -> list[DetectionColumns]:
    """The rows as one block per frame from frame 0 up to the largest present, for tracking.

    Empty frames count there, so an absent frame is one shared empty
    block.  Records become a block first, as write_detections takes
    them: records with and without a variance raise FormatError.  Frame
    indices must lie in [0, MAX_FRAME_INDEX], as the readers require, so
    the list stays bounded: the first row outside raises FormatError.
    """
    dets = _columns_of(records)
    outside = np.flatnonzero((dets.frame < 0) | (dets.frame > MAX_FRAME_INDEX))
    if len(outside):
        raise FormatError(_frame_fault(int(dets.frame[outside[0]])))
    frames = {frame: dets.take(index) for frame, index in dets.by_frame()}
    none = dets.take(np.zeros(0, np.intp))
    return [frames.get(f, none) for f in range(max(frames, default=-1) + 1)]


def read_track_columns(path: str | Path) -> TrackColumns:
    """A track file as columns, read as read_detection_columns reads one; an id appears at most once per frame.

    The block's arrays are read-only, so what is computed from it is
    kept with it (see TrackColumns.kept).
    """
    frame, ids, names, rows, _ = _decoded(path, _read_block, [TRACK_COLUMNS])
    return TrackColumns.sealed(frame, ids, names, rows)


def read_tracks(path: str | Path) -> list[tuple[int, int, Box3D]]:
    """A track file's (frame, track id, box) rows (see read_track_columns)."""
    t = read_track_columns(path)
    return [(f, i, Box3D(*v[:7], class_id=c, score=v[7]))
            for f, i, c, v in zip(t.frame.tolist(), t.track_id.tolist(), t.class_id.tolist(), t.rows.tolist())]


def parse_kitti_labels(path: str | Path) -> dict[int, list[Box3D]]:
    """Read KITTI object or tracking label lines into per-frame boxes.

    Object-format lines (15 or 16 fields) all land in frame 0; tracking
    lines (17 or 18 fields, leading frame and id) use their own frame.
    Only the frames present are keys, ascending, each frame's boxes in
    line order.  Blank lines and DontCare entries are skipped.  The file
    is decoded as the CSV readers decode one (see _lines): one that is
    not UTF-8 text raises FormatError naming its path.
    """
    return _decoded(path, _kitti_frames)


def _kitti_frames(path: str | Path, lines: Iterator[str]) -> dict[int, list[Box3D]]:
    """parse_kitti_labels' frames from the file's lines."""
    frames: dict[int, list[Box3D]] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) in (15, 16):
            frame = 0
            fields = parts
        elif len(parts) in (17, 18):
            try:
                frame = _frame_index(parts[0])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad frame index: {exc}") from exc
            fields = parts[2:]
        else:
            raise FormatError(f"{path}:{lineno}: expected 15-18 fields, got {len(parts)}")
        obj_type = fields[0]
        if obj_type in KITTI_SKIP_TYPES:
            continue
        try:
            h, w, l = (float(v) for v in fields[8:11])
            x_cam, y_cam, z_cam = (float(v) for v in fields[11:14])
            ry = float(fields[14])
            score = float(fields[15]) if len(fields) == 16 else 1.0
            box = Box3D(
                x=z_cam,
                y=-x_cam,
                z=-y_cam + h / 2.0,
                w=w,
                l=l,
                h=h,
                theta=wrap_angle(-ry - math.pi / 2.0),
                class_id=obj_type,
                score=score,
            )
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        frames.setdefault(frame, []).append(box)
    return dict(sorted(frames.items()))


# --- run configuration -------------------------------------------------

@dataclass
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    scoring: ScoreMapConfig = field(default_factory=ScoreMapConfig)
    nms: NmsConfig = field(default_factory=NmsConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)  # bool is an int subclass


def _fits_float(value) -> bool:
    """Whether a JSON number converts to a float: an integer beyond the float range does not."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


# a scalar field's default type -> (test of its JSON value, what the value must be)
_SCALARS = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
}


def _checked(name: str, test: Callable, kind: str, value):
    if not test(value):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def _number(name: str, value):
    _checked(name, _is_number, "a number", value)
    return _checked(name, _fits_float, "a number within float range", value)


def _numbers(name: str, value) -> tuple[float, ...]:
    _checked(name, lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)), "a list of numbers", value)
    _checked(name, lambda v: all(map(_fits_float, v)), "a list of numbers within float range", value)
    return tuple(float(x) for x in value)


def _layout(cls) -> dict[str, tuple[Callable, Callable]]:
    """Field name -> (to disk, from disk) for a config class.

    Enums are stored by value and tuples as lists of floats.  Reading
    checks each value's JSON type: an integer field takes an integer, a
    float field a number, a bool field true or false and a tuple field a
    list of numbers; a number for a float must convert to one, which an
    integer beyond the float range does not.
    """
    out = {}
    for f in fields(cls):
        if isinstance(f.default, Enum):
            out[f.name] = (lambda v: v.value, type(f.default))
        elif isinstance(f.default, tuple):
            out[f.name] = (list, partial(_numbers, f.name))
        elif isinstance(f.default, float):
            out[f.name] = (lambda v: v, partial(_number, f.name))
        else:
            out[f.name] = (lambda v: v, partial(_checked, f.name, *_SCALARS[type(f.default)]))
    return out


def _check_keys(where: str, given, allowed) -> None:
    if not isinstance(given, dict):
        raise FormatError(f"config {where} must be a JSON object")
    unknown = set(given) - set(allowed)
    if unknown:
        raise FormatError(f"unknown config key(s) in {where}: {', '.join(sorted(unknown))}")


def config_to_dict(cfg: RunConfig) -> dict:
    out = {}
    for sec in fields(RunConfig):
        section = getattr(cfg, sec.name)
        layout = _layout(sec.default_factory).items()
        out[sec.name] = {name: to_disk(getattr(section, name)) for name, (to_disk, _) in layout}
    return out


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from its dict form; absent keys take the dataclass defaults.

    Unknown keys and values the config dataclasses reject raise FormatError.
    """
    _check_keys("top level", data, [sec.name for sec in fields(RunConfig)])
    sections = {}
    for sec in fields(RunConfig):
        given = data.get(sec.name, {})
        layout = _layout(sec.default_factory)
        _check_keys(sec.name, given, layout)
        try:
            sections[sec.name] = sec.default_factory(**{name: layout[name][1](v) for name, v in given.items()})
        except (TypeError, ValueError) as exc:
            raise FormatError(f"config {sec.name}: {exc}") from exc
    return RunConfig(**sections)


def save_config(path: str | Path, cfg: RunConfig) -> None:
    with _replaced(path) as (out,):
        out.write(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def read_config(path: str | Path) -> dict:
    """The dict form of a config file, checked to build a valid RunConfig."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSONDecodeError, or an integer with more digits than int() converts
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    config_from_dict(data)
    return data


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(read_config(path))
