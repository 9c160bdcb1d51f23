"""File formats and run configuration.

Detections and tracks travel as versioned CSV files with a fixed header;
floats are printed with 9 significant digits.  That is exact for float32
but not for float64: a value read back may differ from the one written
by up to half a unit in its ninth significant digit.  A file written
here reads back and writes again to the same bytes; so the writers
refuse, with FormatError and before writing anything, a class name that
holds a comma or a line boundary str.splitlines splits at, which a
reader would split into fields or lines.

One table reader serves detection and track files.  str.splitlines
cuts a file into lines, and one C-level pass of numpy's tokenizer
parses every data line into int64 frames and ids, class text as
written and float64 values, each bit for bit what int() and float()
give.  Where numpy refuses a line (a field that only int() or float()
takes, a wrong field count) or a field other than class is not plain
ASCII, the per-field path splits the lines into columns, parses each
field with int or float and names the first bad row.  Whole columns are
checked at once; the first bad row, by the order a row-by-row reader
would check, raises FormatError naming its path:line.  A detection file
reads as boxes.DetectionColumns and a track file as a read-only
boxes.TrackColumns (both re-exported here, both written back by the
writers), arrays with one entry per row (the form
`uatrack nms` carries from reader to writer, `uatrack track` feeds the
tracker one frame block at a time, and `uatrack eval-det` and
`uatrack eval-track` score as row blocks, and the block `uatrack track`
writes as tracker.track_frames returns it), or as DetectionRecord rows
and (frame, id, box) rows.  Records reach the detection writer and
detections_to_frames only as a block, through DetectionColumns.of:
records with and without a variance raise FormatError.  KITTI
object/tracking label files can be imported as ground truth.  Run
configuration is namespaced JSON with strict key checking; its keys
and defaults are the fields of the config dataclasses, each stored
under its own name and in its own form.

Axis convention: the internal frame is right-handed with z up and the
sensor at the origin.  KITTI camera coordinates (x right, y down,
z forward, yaw ry about y, location at the box bottom) map to it as

    x_internal = z_cam
    y_internal = -x_cam
    z_internal = -y_cam + h/2   (bottom center -> box center)
    theta      = -ry - pi/2     (wrapped)
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import partial
from itertools import islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .boxes import (BOX_FIELDS, MAX_FRAME_INDEX, Box3D, DetectionColumns, DetectionRecord, TrackColumns, _box_row,
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


def format_float(x: float) -> str:
    """A float printed with 9 significant digits, the precision of every emitted file."""
    return format(float(x), _FLOAT_FORMAT)


def table_text(header: list[str], rows: Iterable[Iterable[str]]) -> str:
    """The version line, the header and one comma-joined line per row, each ending in a newline."""
    return "\n".join([FORMAT_VERSION_LINE, ",".join(header), *(",".join(row) for row in rows)]) + "\n"


def write_table(path: str | Path | None, header: list[str], rows: Iterable[Iterable[str]]) -> None:
    """Write table_text to path, or to stdout when there is no path."""
    text = table_text(header, rows)
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _float_cells(k: int) -> str:
    """A %-format of k comma-joined floats; %-formatting prints what format_float prints."""
    return ",".join(["%" + _FLOAT_FORMAT] * k)


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
    """Write detection rows, given as records or as columns; variance columns are all-or-none."""
    dets = _columns_of(records)
    _check_class_names(set(dets.class_id.tolist()))
    has_var = dets.var is not None and len(dets) > 0  # no rows: no variance columns either
    values = np.hstack([dets.rows, dets.var]) if has_var else dets.rows
    floats = _float_cells(values.shape[1])
    rows = ((str(f), c, floats % tuple(v))
            for f, c, v in zip(dets.frame.tolist(), dets.class_id.tolist(), values.tolist()))
    write_table(path, DET_COLUMNS_VAR if has_var else DET_COLUMNS, rows)


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


class _Table(NamedTuple):
    """A table's data rows parsed, whichever path parsed them, and the faults found so far."""

    header: list[str]
    frame: np.ndarray  # int64
    ids: np.ndarray | None  # Python ints, where the header has an id column
    names: np.ndarray  # the class texts as written
    values: np.ndarray  # float64, the columns after class, writable
    faults: _Faults


def _read_table(path: str | Path, headers: list[list[str]]) -> _Table:
    """A versioned table with one of the given headers, its data rows parsed.

    Blank lines are skipped.  The rows are parsed in one pass of numpy's
    tokenizer (see _loaded), given only rows whose fields other than
    class are ASCII without U+001F (see _plain).  Where it is not given
    the rows or refuses one, the per-field path parses each field with
    int or float instead.  A file that is not UTF-8 text raises
    FormatError naming its path.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_VERSION_LINE:
        raise FormatError(f"{path}: missing version line {FORMAT_VERSION_LINE!r}")
    header = lines[1].strip() if len(lines) > 1 else ""
    if header not in [",".join(columns) for columns in headers]:
        raise FormatError(f"{path}: unrecognized header {header!r}")
    header, rows = header.split(","), [line for line in lines[2:] if line.strip()]
    faults = _Faults(path, lines[2:], len(rows))
    at, has_id = header.index("class"), "id" in header
    plain = (text.isascii() and "\x1f" not in text) or _plain(rows, at)
    table = _loaded(rows, header) if plain else None
    if table is not None:
        frame = np.ascontiguousarray(table["frame"])
        faults.check((frame < 0) | (frame > MAX_FRAME_INDEX), lambda row: _frame_fault(int(frame[row])))
        ids = table["id"].astype(object) if has_id else None  # each id a Python int
        return _Table(header, frame, ids, np.array(table["class"], dtype=object), table["values"].copy(), faults)
    columns = _columns(rows, len(header), faults)
    frame = _parsed(columns[0], _frame_index, faults, dtype=np.int64)
    values = np.column_stack([_parsed(column, float, faults) for column in columns[at + 1:]])
    ids = _parsed(columns[header.index("id")], int, faults, dtype=object) if has_id else None
    return _Table(header, frame, ids, np.array(columns[at], dtype=object), values, faults)


def _plain(rows: list[str], at: int) -> bool:
    """Whether every field of the rows but field `at`, the class, is ASCII without U+001F.

    Only such rows may go to numpy's tokenizer: its int parser reads a
    non-ASCII character through C's isdigit, out of that table's bounds,
    and it strips U+001F from a number as whitespace, which int() and
    float() reject.  It keeps class text as written, whatever it holds.
    Only the rows that are not all ASCII, or hold U+001F, are split.
    """
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

    The data lines are parsed in one pass of numpy's tokenizer (see
    _loaded); where it refuses one, each field is parsed by int or
    float.  Frame indices must lie in [0, MAX_FRAME_INDEX], box values
    and scores be finite, extents and variances positive.  The first bad
    row raises FormatError naming its path:line.
    """
    t = _read_table(path, [DET_COLUMNS, DET_COLUMNS_VAR])
    values, faults = t.values, t.faults
    var = values[:, 8:] if len(t.header) == len(DET_COLUMNS_VAR) else None
    if bad := first_bad_row(values[:, :8], var):
        faults.note(*bad)
    faults.raise_first()
    values[:, 6] = wrap_angles(values[:, 6])
    return DetectionColumns(t.frame, t.names, values[:, :8], var)


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


def write_tracks(path: str | Path, tracks: list[tuple[int, int, Box3D]] | TrackColumns) -> None:
    """Write track rows, given as (frame, track id, box) rows or as columns: a first pass checks their class names."""
    if isinstance(tracks, TrackColumns):
        rows = zip(tracks.frame.tolist(), tracks.track_id.tolist(), tracks.class_id.tolist(), tracks.rows.tolist())
        names = set(tracks.class_id.tolist())
    else:
        rows = ((frame, track_id, box.class_id, _box_row(box)) for frame, track_id, box in tracks)
        names = {box.class_id for _, _, box in tracks}
    _check_class_names(names)
    floats = _float_cells(8)
    write_table(path, TRACK_COLUMNS, ((str(frame), str(track_id), name, floats % tuple(values))
                                      for frame, track_id, name, values in rows))


def read_track_columns(path: str | Path) -> TrackColumns:
    """A track file as columns, read as read_detection_columns reads one; an id appears at most once per frame.

    The block's arrays are read-only, so what is computed from it is
    kept with it (see TrackColumns.kept).
    """
    t = _read_table(path, [TRACK_COLUMNS])
    frame, ids, values, faults = t.frame, t.ids, t.values, t.faults
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
    return TrackColumns.sealed(frame, ids, t.names, values)


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
    line order.  Blank lines and DontCare entries are skipped.
    """
    frames: dict[int, list[Box3D]] = {}
    text = Path(path).read_text().splitlines()
    for lineno, line in enumerate(text, start=1):
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
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


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
