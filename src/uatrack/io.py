"""File formats and run configuration.

Detections and tracks travel as versioned CSV files with a fixed header;
floats are printed with 9 significant digits.  That is exact for float32
but not for float64: a value read back may differ from the one written
by up to half a unit in its ninth significant digit.  A file written
here reads back and writes again to the same bytes.  Its detection rows
are the DetectionRecord rows the simulator emits; `frames_of` is the one
grouping of rows by frame.  KITTI object/tracking label files can be
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
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

from .boxes import BOX_FIELDS, Box3D, BoxVariance, DetectionRecord, FrameDetections, box_values, wrap_angle
from .metrics import EvalConfig
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
# track and eval-track step through every frame up to the largest index,
# empty ones included, so this bounds their time and memory for any file.
MAX_FRAME_INDEX = 1_000_000


class FormatError(ValueError):
    """Raised when a file does not match the expected layout."""


def format_float(x: float) -> str:
    """A float printed with 9 significant digits, the precision of every emitted file."""
    return format(float(x), ".9g")


def _box_fields(box: Box3D) -> list[str]:
    return [box.class_id] + [format_float(v) for v in (*box_values(box), box.score)]


def write_table(path: str | Path | None, header: list[str], rows: Iterable[list[str]]) -> None:
    """Write the version line, the header and one comma-joined line per row.

    The table goes to stdout when there is no path.
    """
    text = "\n".join([FORMAT_VERSION_LINE, ",".join(header), *(",".join(row) for row in rows)]) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def write_detections(path: str | Path, records: list[DetectionRecord]) -> None:
    """Write detection records; variance columns are all-or-none."""
    with_var = [r.variance is not None for r in records]
    if any(with_var) and not all(with_var):
        raise FormatError("either every record carries a variance or none does")
    has_var = bool(records) and with_var[0]
    rows = ([str(r.frame), *_box_fields(r.box), *(map(format_float, r.variance.as_tuple()) if has_var else ())]
            for r in records)
    write_table(path, DET_COLUMNS_VAR if has_var else DET_COLUMNS, rows)


def _read_table(path: str | Path, headers: list[list[str]], parse_row: Callable[[list[str]], object]) -> list:
    """Each non-blank row of a versioned table with one of the given headers, parsed.

    A ValueError from `parse_row` becomes a FormatError naming the row's path:line.
    """
    text = Path(path).read_text().splitlines()
    if not text or text[0].strip() != FORMAT_VERSION_LINE:
        raise FormatError(f"{path}: missing version line {FORMAT_VERSION_LINE!r}")
    header = text[1].strip() if len(text) > 1 else ""
    if header not in [",".join(columns) for columns in headers]:
        raise FormatError(f"{path}: unrecognized header {header!r}")
    want = header.count(",") + 1
    rows = [(lineno, line.split(",")) for lineno, line in enumerate(text[2:], start=3) if line.strip()]
    del text  # the rows hold every field; free the lines before parsing
    for lineno, parts in rows:
        if len(parts) != want:
            raise FormatError(f"{path}:{lineno}: expected {want} fields, got {len(parts)}")
    out = []
    for lineno, parts in rows:
        try:
            out.append(parse_row(parts))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return out


def _frame_index(text: str) -> int:
    """A row's frame index; raises ValueError unless it is an integer in [0, MAX_FRAME_INDEX]."""
    frame = int(text)
    if frame < 0:
        raise ValueError(f"negative frame index {frame}")
    if frame > MAX_FRAME_INDEX:
        raise ValueError(f"frame index {frame} above the maximum {MAX_FRAME_INDEX}")
    return frame


def read_detections(path: str | Path) -> list[DetectionRecord]:
    def parse(parts: list[str]) -> DetectionRecord:
        frame, vals = _frame_index(parts[0]), [float(v) for v in parts[2:]]
        box = Box3D(*vals[:7], class_id=parts[1], score=vals[7])
        return DetectionRecord(frame, box, BoxVariance(*vals[8:]) if len(vals) > 8 else None)

    return _read_table(path, [DET_COLUMNS, DET_COLUMNS_VAR], parse)


def frames_of(pairs: Iterable[tuple[int, object]]) -> dict[int, list]:
    """(frame, item) pairs grouped by frame: only the frames present, ascending, each in input order."""
    out: dict[int, list] = {}
    for frame, item in pairs:
        out.setdefault(frame, []).append(item)
    return dict(sorted(out.items()))


def _dense(frames: dict[int, list]) -> list[list]:
    """Frames 0 up to the largest present, absent ones empty: for tracking, where empty frames count."""
    if min(frames, default=0) < 0:
        raise FormatError(f"frame index {min(frames)} out of range: frames start at 0")
    return [frames.get(f, []) for f in range(max(frames, default=-1) + 1)]


def detections_to_frames(records: list[DetectionRecord]) -> list[FrameDetections]:
    """The records as consecutive per-frame lists starting at frame 0."""
    return _dense(frames_of((r.frame, r) for r in records))


def write_tracks(path: str | Path, rows: list[tuple[int, int, Box3D]]) -> None:
    """Write (frame, track id, box) rows."""
    write_table(path, TRACK_COLUMNS, ([str(frame), str(track_id), *_box_fields(box)] for frame, track_id, box in rows))


def read_tracks(path: str | Path) -> list[tuple[int, int, Box3D]]:
    """Read (frame, track id, box) rows; an id appears at most once per frame."""
    seen: set[tuple[int, int]] = set()

    def parse(parts: list[str]) -> tuple[int, int, Box3D]:
        frame, vals = _frame_index(parts[0]), [float(v) for v in parts[3:]]
        track_id = int(parts[1])
        box = Box3D(*vals[:7], class_id=parts[2], score=vals[7])
        if (frame, track_id) in seen:
            raise ValueError(f"id {track_id} repeated in frame {frame}")
        seen.add((frame, track_id))
        return frame, track_id, box

    return _read_table(path, [TRACK_COLUMNS], parse)


def tracks_to_frames(rows: list[tuple[int, int, Box3D]]) -> list[list[tuple[int, Box3D]]]:
    """(frame, id, box) rows as consecutive per-frame (id, box) lists starting at frame 0."""
    return _dense(frames_of((frame, (track_id, box)) for frame, track_id, box in rows))


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
