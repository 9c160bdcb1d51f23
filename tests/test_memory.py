"""Memory in proportion to the data: simulate streams its frames, the writers and readers work in batches.

Each figure is a tracemalloc peak, taken in process: the Python
allocations numpy's arrays and every str, int and list make.
"""

import contextlib
import io as _stdio
import tracemalloc

import numpy as np
import pytest

from uatrack import io
from uatrack.boxes import DetectionColumns, TrackColumns
from uatrack.cli import main


def _traced(fn):
    """fn's result, the traced memory it holds once fn returns, and fn's traced peak, both beyond the start's."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


def _block(n: int, targets: int = 500) -> tuple[np.ndarray, ...]:
    """Seeded columns of n rows: frame indices, ids 0 to targets - 1 in each frame, "Car" names, rows and variances."""
    rng = np.random.default_rng(0)
    rows = np.column_stack([rng.uniform(-50.0, 50.0, (n, 3)), rng.uniform(1.0, 4.0, (n, 3)),
                            rng.uniform(-3.0, 3.0, n), rng.uniform(0.0, 1.0, n)])
    names = np.empty(n, object)
    names.fill("Car")
    ids = np.tile(np.arange(targets), -(-n // targets))[:n].astype(object)
    return np.arange(n) // targets, ids, names, rows, rng.uniform(0.01, 1.0, (n, 7))


def test_simulate_peak_does_not_grow_with_frames(tmp_path):
    def simulate(n_frames):
        argv = ["simulate", "--out-gt", str(tmp_path / "gt.csv"), "--out-dets", str(tmp_path / "dets.csv"),
                "--n-targets", "100", "--n-frames", str(n_frames), "--fp-rate", "1", "--fn-rate", "0.1"]
        with contextlib.redirect_stdout(_stdio.StringIO()):
            return _traced(lambda: main(argv))

    simulate(2)  # what the first run loads or caches once is not the run's own
    (code_10, _, peak_10), (code_100, _, peak_100) = simulate(10), simulate(100)
    assert code_10 == code_100 == 0
    assert peak_100 <= 1.25 * peak_10, (peak_10, peak_100)


def test_detection_writer_peaks_below_the_block(tmp_path):
    # without variances, each row's eight floats are half the allocations tracemalloc times
    frame, _, names, rows, _ = _block(50_000)
    block = DetectionColumns(frame, names, rows)
    _, _, peak = _traced(lambda: io.write_detections(tmp_path / "dets.csv", block))
    array_bytes = sum(column.nbytes for column in (block.frame, block.class_id, block.rows))
    assert peak < array_bytes, (peak, array_bytes)


@pytest.mark.parametrize("kind, bound", [("detections", 2.5), ("tracks", 3.0)])
def test_reader_peaks_within_a_bound_of_its_block(tmp_path, kind, bound):
    # a track file's (frame, id) set is the rest of its bound, until ids are typed
    frame, ids, names, rows, var = _block(50_000)
    path = tmp_path / "table.csv"
    if kind == "tracks":
        io.write_tracks(path, TrackColumns(frame, ids, names, rows))
        read = io.read_track_columns
    else:
        io.write_detections(path, DetectionColumns(frame, names, rows, var))
        read = io.read_detection_columns
    read(path)  # numpy's tokenizer loads its modules on the first read
    block, held, peak = _traced(lambda: read(path))
    assert len(block) == 50_000 and len(set(map(id, block.class_id))) == 1
    assert peak <= bound * held, (peak, held)
