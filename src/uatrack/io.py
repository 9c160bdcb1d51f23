"""File formats and run configuration.

Detections and tracks travel as versioned CSV files with a fixed header;
floats are printed with 9 significant digits.  That is exact for float32
but not for float64: a value read back may differ from the one written
by up to half a unit in its ninth significant digit.  A file written
here reads back and writes again to the same bytes.

One table reader serves detection and track files: it splits a file
into columns, parses each field with int or float, and checks whole
columns at once; the first bad row, by the order a row-by-row reader
would check, raises FormatError naming its path:line.  A detection file
reads as boxes.DetectionColumns and a track file as boxes.TrackColumns
(both re-exported here), arrays with one entry per row (the form
`uatrack nms` carries from reader to writer, `uatrack track` feeds the
tracker one frame block at a time, and `uatrack eval-det` and
`uatrack eval-track` score as row blocks), or as DetectionRecord rows
and the (frame, id, box) rows the tracker emits; `frames_of` groups
(frame, item) pairs by frame.  KITTI object/tracking label files can be
imported as ground truth.  Run configuration is namespaced JSON with
strict key checking; its keys and defaults are the fields of the config
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

import json
import math
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .boxes import (BOX_FIELDS, Box3D, DetectionColumns, DetectionRecord, FrameDetections, TrackColumns, box_values,
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

# Largest frame index a file may hold (a day at 10 Hz is 864,000 frames).
# track steps through every frame up to the largest index, empty ones
# included, so this bounds its time and memory for any file.
MAX_FRAME_INDEX = 1_000_000


class FormatError(ValueError):
    """Raised when a file does not match the expected layout."""


_FLOAT_FORMAT = ".9g"


def format_float(x: float) -> str:
    """A float printed with 9 significant digits, the precision of every emitted file."""
    return format(float(x), _FLOAT_FORMAT)


def write_table(path: str | Path | None, header: list[str], rows: Iterable[Iterable[str]]) -> None:
    """Write the version line, the header and one comma-joined line per row.

    The table goes to stdout when there is no path.
    """
    text = "\n".join([FORMAT_VERSION_LINE, ",".join(header), *(",".join(row) for row in rows)]) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def write_detections(path: str | Path, records: list[DetectionRecord] | DetectionColumns) -> None:
    """Write detection rows, given as records or as columns; variance columns are all-or-none."""
    try:
        dets = records if isinstance(records, DetectionColumns) else DetectionColumns.of(records)
    except ValueError as exc:  # records with and without a variance
        raise FormatError(str(exc)) from exc
    has_var = dets.var is not None and len(dets) > 0  # no rows: no variance columns either
    values = np.hstack([dets.rows, dets.var]) if has_var else dets.rows
    floats = ",".join(["%" + _FLOAT_FORMAT] * values.shape[1])  # %-formatting prints what format_float prints
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


def _read_table(path: str | Path, headers: list[list[str]]) -> tuple[list[list[str]], _Faults]:
    """The columns of a versioned table with one of the given headers, and the faults of its rows.

    Blank lines are skipped.  A row without the header's field count
    raises FormatError naming its path:line.
    """
    text = Path(path).read_text().splitlines()
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


def _frame_index(text: str) -> int:
    """A frame index; raises ValueError unless it is an integer in [0, MAX_FRAME_INDEX]."""
    frame = int(text)
    if not 0 <= frame <= MAX_FRAME_INDEX:
        raise ValueError(_frame_fault(frame))
    return frame


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


def read_detections(path: str | Path) -> list[DetectionRecord]:
    """A detection file's rows as DetectionRecords (see read_detection_columns)."""
    return list(read_detection_columns(path))


def frames_of(pairs: Iterable[tuple[int, object]]) -> dict[int, list]:
    """(frame, item) pairs grouped by frame: only the frames present, ascending, each in input order."""
    out: dict[int, list] = {}
    for frame, item in pairs:
        out.setdefault(frame, []).append(item)
    return dict(sorted(out.items()))


def detections_to_frames(records: Sequence[DetectionRecord]) -> list[FrameDetections]:
    """The rows as consecutive per-frame sequences from frame 0 up to the largest present, for tracking.

    Empty frames count there, so absent frames are empty: columns give
    one block per frame, absent frames one shared empty block, so no
    record is built; records give one list per frame.
    """
    if isinstance(records, DetectionColumns):
        none = records.take(np.zeros(0, np.intp))
        frames, empty = {frame: records.take(index) for frame, index in records.by_frame()}, lambda: none
    else:
        frames, empty = frames_of((r.frame, r) for r in records), list
    if min(frames, default=0) < 0:
        raise FormatError(f"frame index {min(frames)} out of range: frames start at 0")
    return [frames[f] if f in frames else empty() for f in range(max(frames, default=-1) + 1)]


def write_tracks(path: str | Path, rows: list[tuple[int, int, Box3D]]) -> None:
    """Write (frame, track id, box) rows."""
    write_table(path, TRACK_COLUMNS, ([str(frame), str(track_id), box.class_id,
                                       *map(format_float, (*box_values(box), box.score))]
                                      for frame, track_id, box in rows))


def read_track_columns(path: str | Path) -> TrackColumns:
    """A track file as columns, checked as read_detection_columns checks a detection file; an id appears at most once per frame."""
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
    return TrackColumns(frame, ids, np.array(columns[2], dtype=object), values)


def read_tracks(path: str | Path) -> list[tuple[int, int, Box3D]]:
    """A track file's (frame, track id, box) rows (see read_track_columns)."""
    t = read_track_columns(path)
    return [(f, i, Box3D(*v[:7], class_id=c, score=v[7]))
            for f, i, c, v in zip(t.frame.tolist(), t.track_id.tolist(), t.class_id.tolist(), t.rows.tolist())]


def parse_kitti_labels(path: str | Path) -> dict[int, list[Box3D]]:
    """Read KITTI object or tracking label lines into per-frame boxes.

    Object-format lines (15 or 16 fields) all land in frame 0; tracking
    lines (17 or 18 fields, leading frame and id) use their own frame.
    DontCare entries are skipped.
    """
    rows: list[tuple[int, Box3D]] = []
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
        rows.append((frame, box))
    return frames_of(rows)


# --- run configuration -------------------------------------------------

@dataclass
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    scoring: ScoreMapConfig = field(default_factory=ScoreMapConfig)
    nms: NmsConfig = field(default_factory=NmsConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):  # bool is an int subclass
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _layout(cls) -> dict[str, tuple[Callable, Callable]]:
    """Field name -> (to disk, from disk) for a config class.

    Enums are stored by value and tuples as lists of floats; integer
    fields take integers only; other fields are stored as they are.
    """
    out = {}
    for f in fields(cls):
        if isinstance(f.default, Enum):
            out[f.name] = (lambda v: v.value, type(f.default))
        elif isinstance(f.default, tuple):
            out[f.name] = (list, lambda v: tuple(float(x) for x in v))
        elif type(f.default) is int:
            out[f.name] = (lambda v: v, lambda v, name=f.name: _integer(name, v))
        else:
            out[f.name] = (lambda v: v, lambda v: v)
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
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    config_from_dict(data)
    return data


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(read_config(path))
