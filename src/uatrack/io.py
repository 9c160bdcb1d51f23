"""File formats and run configuration.

Detections and tracks travel as versioned CSV files with a fixed header;
floats are printed with 9 significant digits, which round-trips exactly
through parse/print.  KITTI object/tracking label files can be imported
as ground truth.  Run configuration is namespaced JSON with strict key
checking; its keys and defaults are the fields of the config dataclasses.

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
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .boxes import Box3D, BoxVariance, DetectionWithCovariance, FrameDetections, wrap_angle
from .metrics import EvalConfig
from .scoring import NmsConfig, ScoreMapConfig
from .sim import ScenarioConfig
from .tracker import TrackerConfig

FORMAT_VERSION_LINE = "# uatrack-v1"

_DET_COLS = ["frame", "class", "x", "y", "z", "w", "l", "h", "theta", "score"]
_VAR_COLS = ["var_x", "var_y", "var_z", "var_w", "var_l", "var_h", "var_theta"]
DET_HEADER = ",".join(_DET_COLS)
DET_HEADER_VAR = ",".join(_DET_COLS + _VAR_COLS)
TRACK_HEADER = ",".join(["frame", "id", "class", "x", "y", "z", "w", "l", "h", "theta", "score"])

KITTI_SKIP_TYPES = {"DontCare"}


class FormatError(ValueError):
    """Raised when a file does not match the expected layout."""


@dataclass(frozen=True)
class DetectionRecord:
    frame: int
    box: Box3D
    variance: BoxVariance | None = None


def format_float(x: float) -> str:
    """A float printed with 9 significant digits, the precision of every emitted file."""
    return format(float(x), ".9g")


def _box_fields(box: Box3D) -> list[str]:
    values = (box.x, box.y, box.z, box.w, box.l, box.h, box.theta, box.score)
    return [box.class_id] + [format_float(v) for v in values]


def write_detections(path: str | Path, records: list[DetectionRecord]) -> None:
    """Write detection records; variance columns are all-or-none."""
    with_var = [r.variance is not None for r in records]
    if any(with_var) and not all(with_var):
        raise FormatError("either every record carries a variance or none does")
    has_var = bool(records) and with_var[0]
    lines = [FORMAT_VERSION_LINE, DET_HEADER_VAR if has_var else DET_HEADER]
    for r in records:
        row = [str(r.frame)] + _box_fields(r.box)
        if has_var:
            row += [format_float(v) for v in r.variance.as_tuple()]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def _read_versioned(path: str | Path, expected_headers: dict[str, bool]) -> tuple[bool, list[tuple[int, list[str]]]]:
    """The header's flag and the (line number, fields) of each non-blank row."""
    text = Path(path).read_text().splitlines()
    if not text or text[0].strip() != FORMAT_VERSION_LINE:
        raise FormatError(f"{path}: missing version line {FORMAT_VERSION_LINE!r}")
    header = text[1].strip() if len(text) > 1 else ""
    if header not in expected_headers:
        raise FormatError(f"{path}: unrecognized header {header!r}")
    want = header.count(",") + 1
    rows = [(lineno, line.split(",")) for lineno, line in enumerate(text[2:], start=3) if line.strip()]
    for lineno, parts in rows:
        if len(parts) != want:
            raise FormatError(f"{path}:{lineno}: expected {want} fields, got {len(parts)}")
    return expected_headers[header], rows


def _frame_and_values(frame_text: str, value_texts: list[str]) -> tuple[int, list[float]]:
    """Parse a row's frame index and float columns.

    Raises ValueError on a bad frame index or number; Box3D and
    BoxVariance check the values themselves.
    """
    frame = int(frame_text)
    if frame < 0:
        raise ValueError(f"negative frame index {frame}")
    return frame, [float(v) for v in value_texts]


def read_detections(path: str | Path) -> list[DetectionRecord]:
    has_var, rows = _read_versioned(path, {DET_HEADER: False, DET_HEADER_VAR: True})
    records = []
    for lineno, parts in rows:
        try:
            frame, vals = _frame_and_values(parts[0], parts[2:])
            box = Box3D(*vals[:7], class_id=parts[1], score=vals[7])
            variance = BoxVariance(*vals[8:15]) if has_var else None
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        records.append(DetectionRecord(frame, box, variance))
    return records


def _by_frame(frame_of: list[int], items: list, n_frames: int | None) -> list[list]:
    """Group items into consecutive per-frame lists starting at frame 0."""
    if n_frames is None:
        n_frames = max(frame_of, default=-1) + 1
    if frame_of and (min(frame_of) < 0 or max(frame_of) >= n_frames):
        bad = next(f for f in frame_of if not 0 <= f < n_frames)
        raise FormatError(f"frame index {bad} out of range [0, {n_frames})")
    frames: list[list] = [[] for _ in range(n_frames)]
    for frame, item in zip(frame_of, items):
        frames[frame].append(item)
    return frames


def detections_to_frames(records: list[DetectionRecord], n_frames: int | None = None) -> list[FrameDetections]:
    """Group records into consecutive per-frame lists starting at frame 0."""
    items = [DetectionWithCovariance(r.box, r.variance) for r in records]
    return _by_frame([r.frame for r in records], items, n_frames)


def write_tracks(path: str | Path, rows: list[tuple[int, int, Box3D]]) -> None:
    """Write (frame, track id, box) rows."""
    lines = [FORMAT_VERSION_LINE, TRACK_HEADER]
    for frame, track_id, box in rows:
        lines.append(",".join([str(frame), str(track_id)] + _box_fields(box)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_tracks(path: str | Path) -> list[tuple[int, int, Box3D]]:
    """Read (frame, track id, box) rows; an id appears at most once per frame."""
    _, rows = _read_versioned(path, {TRACK_HEADER: True})
    out = []
    seen: set[tuple[int, int]] = set()
    for lineno, parts in rows:
        try:
            frame, vals = _frame_and_values(parts[0], parts[3:])
            track_id = int(parts[1])
            box = Box3D(*vals[:7], class_id=parts[2], score=vals[7])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if (frame, track_id) in seen:
            raise FormatError(f"{path}:{lineno}: id {track_id} repeated in frame {frame}")
        seen.add((frame, track_id))
        out.append((frame, track_id, box))
    return out


def tracks_to_frames(rows: list[tuple[int, int, Box3D]], n_frames: int | None = None) -> list[list[tuple[int, Box3D]]]:
    """Group (frame, id, box) rows into consecutive per-frame (id, box) lists starting at frame 0."""
    return _by_frame([row[0] for row in rows], [(track_id, box) for _, track_id, box in rows], n_frames)


def parse_kitti_labels(path: str | Path) -> dict[int, list[Box3D]]:
    """Read KITTI object or tracking label lines into per-frame boxes.

    Object-format lines (15 or 16 fields) all land in frame 0; tracking
    lines (17 or 18 fields, leading frame and id) use their own frame.
    DontCare entries are skipped.
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
                frame = int(float(parts[0]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad frame index") from exc
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
    return frames


# --- run configuration -------------------------------------------------

@dataclass
class RunConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    scoring: ScoreMapConfig = field(default_factory=ScoreMapConfig)
    nms: NmsConfig = field(default_factory=NmsConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _diagonal(q: np.ndarray) -> list[float]:
    if np.any(q != np.diag(np.diag(q))):
        raise FormatError("config files express diagonal process noise only")
    return [float(v) for v in np.diag(q)]


def _obs_noise_from_sigmas(values) -> BoxVariance:
    sigmas = [float(v) for v in values]
    if len(sigmas) != 7 or not all(s > 0.0 for s in sigmas):
        raise FormatError("default_obs_sigma must hold 7 positive values")
    return BoxVariance(*(s * s for s in sigmas))


# TrackerConfig fields kept on disk under another key and in another
# form: field -> (key on disk, to disk, from disk).
_CODECS = {
    "process_noise": ("process_noise_diag", _diagonal, lambda v: np.diag([float(x) for x in v])),
    "default_obs_noise": ("default_obs_sigma", lambda obs: [math.sqrt(v) for v in obs.as_tuple()],
                          _obs_noise_from_sigmas),
}


def _layout(cls) -> dict[str, tuple[str, Callable, Callable]]:
    """Key on disk -> (field name, to disk, from disk) for a config class.

    Enums are stored by value and tuples as lists of floats; other
    fields are stored as they are, under their own name.
    """
    out = {}
    for f in fields(cls):
        if f.name in _CODECS:
            key, to_disk, from_disk = _CODECS[f.name]
            out[key] = (f.name, to_disk, from_disk)
        elif isinstance(f.default, Enum):
            out[f.name] = (f.name, lambda v: v.value, type(f.default))
        elif isinstance(f.default, tuple):
            out[f.name] = (f.name, list, lambda v: tuple(float(x) for x in v))
        else:
            out[f.name] = (f.name, lambda v: v, lambda v: v)
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
        out[sec.name] = {key: to_disk(getattr(section, name)) for key, (name, to_disk, _) in layout}
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
            sections[sec.name] = sec.default_factory(
                **{layout[key][0]: layout[key][2](value) for key, value in given.items()}
            )
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
