"""Shared generators for randomized tests.

Every generator takes an explicit Xoshiro256 so each test controls its seeds;
nothing here reads global random state.
"""

from __future__ import annotations

import numpy as np

from chimptrack.oracles import tiny_behavior_sets, tiny_tracks  # noqa: F401  re-exported for the test modules
from chimptrack.rng import Xoshiro256


def tiny_detection_sets(rng: Xoshiro256, gt_tracks, pred_tracks):
    """Detection-AP inputs derived from a track pair plus confidences."""
    det_gt = [(t.frame, t.box) for t in gt_tracks]
    det_pred = [(t.frame, t.box, rng.uniform(0.1, 0.99)) for t in pred_tracks]
    return det_pred, det_gt


# the layouts a clip may have on disk: each stores float64 values in [0, 1) its way
CLIP_LAYOUTS = {
    "float64": lambda v: v,
    "float32": lambda v: v.astype(np.float32),
    "uint8": lambda v: (v * 256).astype(np.uint8),
    "fortran": np.asfortranarray,
}


def nan_equal(a: float, b: float, tol: float = 1e-9) -> bool:
    if np.isnan(a) and np.isnan(b):
        return True
    return abs(a - b) <= tol


# one verdict line per acceptance criterion, printed after the run so pytest's
# fd-level capture cannot swallow them
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
