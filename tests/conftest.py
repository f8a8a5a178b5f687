import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import monodist
from monodist.evaluate import MatchedPair

# numpy/BLAS warmup makes first-example timings meaningless
settings.register_profile("default", deadline=None)
settings.load_profile("default")

# (class, absolute, predicted) rows of the reference outdoor measurement set
REFERENCE_ROWS = [
    ("car", 53.9, 53.21),
    ("person", 21.5, 21.35),
    ("bus", 48.7, 48.13),
    ("chair", 3.5, 3.45),
    ("person", 8.0, 8.09),
    ("car", 10.1, 9.83),
    ("person", 8.0, 8.13),
    ("person", 12.0, 11.69),
    ("person", 4.0, 3.88),
]


def checkout_env():
    """The environment for a child interpreter that imports this checkout's monodist."""
    src = str(Path(monodist.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def reference_iou(a, b):
    """The scalar IoU formula of two BoundingBoxes, the reference for `detect.iou`."""
    ix = min(a.x1, b.x1) - max(a.x0, b.x0)
    iy = min(a.y1, b.y1) - max(a.y0, b.y0)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


REFERENCE_ERRORS = [0.69, 0.15, 0.57, 0.05, 0.09, 0.27, 0.13, 0.31, 0.12]


@pytest.fixture
def reference_pairs():
    return [MatchedPair(cls, pred, truth) for cls, truth, pred in REFERENCE_ROWS]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
