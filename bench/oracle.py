"""Output oracle for the benchmark, written without any code from `monodist`.

It knows what the benchmark planted in each frame and checks the program's
`.dist.json` and evaluation report against properties that follow from the
paper's pipeline: per-class NMS, median pooling over the depth map, and the
quadratic calibration `ABS = h * (c0 + c1 * REV + c2 * REV^2)`.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

# Program and oracle pool the same float32 map values in float64, so they
# agree far more closely than one float32 step; a few steps is the tolerance.
REV_RTOL = 2.0**-20
ABS_RTOL = 1e-12
# Bound on |REV - true depth| / true depth: one float32 rounding of the
# disparity, one of a metric-depth map, with a factor of 2 to spare.
QUANT_RTOL = 2.0**-22
# Texture of each planted box; see `layers`.
SPLIT = 0.1
OCCLUDER = 0.5


@dataclass(frozen=True)
class Det:
    class_id: int
    class_name: str
    confidence: float
    bbox: tuple[float, float, float, float]


@dataclass(frozen=True)
class Calibration:
    c0: float
    c1: float
    c2: float
    h: float

    def apply(self, x: float) -> float:
        return self.h * (self.c0 + self.c1 * x + self.c2 * x * x)

    def slope(self, x: float) -> float:
        return self.h * (self.c1 + 2.0 * self.c2 * x)


@dataclass(frozen=True)
class FrameTruth:
    """Everything the benchmark planted in one frame."""

    image_id: str
    width: int
    height: int
    depth_kind: str
    depth_range: tuple[float, float]
    background_m: float
    planted: tuple[Det, ...]
    depths: tuple[float, ...]  # true depth of each planted object
    raw: tuple[Det, ...]  # detector output, in file order
    min_conf: float
    iou_threshold: float
    calibration: Calibration | None

    def truth_abs(self, depth: float) -> float:
        return depth if self.calibration is None else self.calibration.apply(depth)


def oracle_iou(a, b) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def depth_from_disparity(v: np.ndarray, depth_range) -> np.ndarray:
    """Normalised disparity v in [0, 1] to metric depth: 1 / (1/max + (1/min - 1/max) v)."""
    near, far = depth_range
    lo, hi = 1.0 / far, 1.0 / near
    return np.clip(1.0 / (lo + (hi - lo) * np.asarray(v, dtype=np.float64)), near, far)


def float32_depth_grid(v: np.ndarray, depth_range) -> np.ndarray:
    return depth_from_disparity(v, depth_range).astype(np.float32)


def layers(bbox, depth: float) -> list[tuple[float, tuple[int, int, int, int]]]:
    """The rectangles, far to near, that paint one planted object of even width.

    The left half of the box lies at depth * (1 + SPLIT) and the right half
    at depth * (1 - SPLIT), so an even window's two middle values differ and
    only their mean is the planted depth. A nearer, undetected occluder at
    depth * OCCLUDER covers part of the right half, the centre pixel
    included, which moves the mean, the minimum and the centre pixel away
    from the median but not the median itself.
    """
    x0, y0, x1, y1 = (int(v) for v in bbox)
    xm, bh = (x0 + x1) // 2, y1 - y0
    occluder = (xm, y0 + bh // 4, xm + max(1, (x1 - xm) * 2 // 3), y0 + bh // 4 + bh // 2)
    return [
        (depth * (1 + SPLIT), (x0, y0, x1, y1)),
        (depth * (1 - SPLIT), (xm, y0, x1, y1)),
        (depth * OCCLUDER, occluder),
    ]


def disparity_grid(f: FrameTruth) -> np.ndarray:
    """The float32 disparity an ideal network emits for the planted scene."""
    depth = np.full((f.height, f.width), f.background_m)
    rects = [r for obj, d in zip(f.planted, f.depths) for r in layers(obj.bbox, d)]
    for d, (c0, r0, c1, r1) in sorted(rects, key=lambda t: -t[0]):
        depth[r0:r1, c0:c1] = d
    near, far = f.depth_range
    lo, hi = 1.0 / far, 1.0 / near
    return np.clip((1.0 / depth - lo) / (hi - lo), 0.0, 1.0).astype(np.float32)


def expected_depth_grid(f: FrameTruth) -> np.ndarray:
    """The metric depth the program should pool: float64, top row first."""
    v = disparity_grid(f)
    if f.depth_kind == "depth":
        return float32_depth_grid(v, f.depth_range).astype(np.float64)
    return depth_from_disparity(v, f.depth_range)


def _cells(bbox, image_w, image_h, map_w, map_h):
    sx, sy = map_w / image_w, map_h / image_h
    c0 = max(0, math.floor(bbox[0] * sx))
    r0 = max(0, math.floor(bbox[1] * sy))
    c1 = min(map_w, math.ceil(bbox[2] * sx))
    r1 = min(map_h, math.ceil(bbox[3] * sy))
    return c0, r0, c1, r1


def check_frame(doc, f: FrameTruth, grid: np.ndarray) -> list[str]:
    """Problems with one frame's `.dist.json` document; empty when it is right."""
    problems: list[str] = []
    if doc.get("image") != f.image_id:
        return [f"image is {doc.get('image')!r}, expected {f.image_id!r}"]
    if doc.get("failures"):
        problems.append(f"{len(doc['failures'])} ROI failures on valid boxes")
    objects = doc.get("objects")
    if not isinstance(objects, list):
        return problems + ["no objects list"]

    rank = {(d.class_name, d.bbox, d.confidence): i for i, d in enumerate(f.raw)}
    kept: list[tuple[int, Det]] = []
    for o in objects:
        key = (o["class_name"], tuple(float(v) for v in o["bbox"]), float(o["confidence"]))
        if key not in rank:
            problems.append(f"object {key} is not one of the frame's detections")
            continue
        kept.append((rank[key], f.raw[rank[key]]))

    # NMS: kept boxes of one class never overlap above the threshold ...
    for i, (_, a) in enumerate(kept):
        for _, b in kept[i + 1 :]:
            if a.class_id == b.class_id and oracle_iou(a.bbox, b.bbox) > f.iou_threshold:
                problems.append(f"kept {a.bbox} and {b.bbox} overlap above the threshold")
    # ... and every dropped confident detection is covered by a better-ranked kept box.
    kept_idx = {i for i, _ in kept}
    for i, d in enumerate(f.raw):
        if i in kept_idx or d.confidence < f.min_conf:
            continue
        if not any(
            k.class_id == d.class_id
            and (k.confidence, -j) > (d.confidence, -i)
            and oracle_iou(k.bbox, d.bbox) > f.iou_threshold
            for j, k in kept
        ):
            problems.append(f"dropped {d.bbox} ({d.class_name} {d.confidence}) has no suppressor")
    want = Counter((p.class_name, p.bbox) for p in f.planted)
    got = Counter((d.class_name, d.bbox) for _, d in kept)
    if want != got:
        problems.append(
            f"kept set differs from planted: missing {sorted((want - got).elements())[:3]}, "
            f"extra {sorted((got - want).elements())[:3]}"
        )

    map_h, map_w = grid.shape
    for o in objects:
        c0, r0, c1, r1 = _cells(o["bbox"], f.width, f.height, map_w, map_h)
        if c0 >= c1 or r0 >= r1:
            problems.append(f"box {o['bbox']} is empty on the grid")
            continue
        rev = float(np.median(grid[r0:r1, c0:c1]))
        if not abs(o["rev_m"] - rev) <= REV_RTOL * rev:
            problems.append(f"rev_m {o['rev_m']} for {o['bbox']}, expected {rev}")
        c = f.calibration
        if c is None:
            if o["abs_m"] is not None:
                problems.append(f"abs_m {o['abs_m']} without a calibration model")
        elif o["abs_m"] is None or not abs(
            o["abs_m"] - c.apply(o["rev_m"])
        ) <= ABS_RTOL * max(1.0, abs(c.apply(o["rev_m"]))):
            problems.append(f"abs_m {o['abs_m']} for rev_m {o['rev_m']}")
    return problems


def check_report(doc, frames: list[FrameTruth], threshold: float) -> list[str]:
    """Problems with an evaluation report over all `frames`; empty when it is right."""
    truths = [f.truth_abs(d) for f in frames for d in f.depths]
    bounds = [
        abs(f.calibration.slope(d) if f.calibration else 1.0) * d * QUANT_RTOL
        + 1e-12 * f.truth_abs(d)
        for f in frames
        for d in f.depths
    ]
    problems = []
    for key in ("unmatched_predictions", "unmatched_truths"):
        if doc.get(key) != 0:
            problems.append(f"{key} is {doc.get(key)}, expected 0")
    pairs = doc.get("pairs", [])
    if Counter(p["truth_m"] for p in pairs) != Counter(truths):
        problems.append(f"{len(pairs)} pairs do not cover the {len(truths)} planted objects")
    if doc.get("accuracy") != 1.0:
        problems.append(f"accuracy {doc.get('accuracy')}, expected 1.0")
    if doc.get("threshold_m") != threshold:
        problems.append(f"threshold_m {doc.get('threshold_m')}, expected {threshold}")
    worst = max(bounds)
    for p in pairs:
        if not abs(p["predicted_m"] - p["truth_m"]) <= worst:
            problems.append(f"pair error {p['predicted_m'] - p['truth_m']} above {worst}")
            break
    tol = math.sqrt(sum(b * b for b in bounds) / len(bounds))
    rmse = doc.get("rmse_m")
    if not (isinstance(rmse, float) and 0.0 <= rmse <= tol):
        problems.append(f"rmse_m {rmse} above the float32 tolerance {tol}")
    elif pairs:
        own = math.sqrt(sum((p["predicted_m"] - p["truth_m"]) ** 2 for p in pairs) / len(pairs))
        if not abs(own - rmse) <= 1e-9 * max(own, 1e-12):
            problems.append(f"rmse_m {rmse} does not match its pairs ({own})")
    return problems


class Checker:
    """Counts attempted and failed operations; each check is one operation.

    An operation fails when it exits non-zero or its output is wrong; only a
    wrong output makes the run incorrect. Identical bytes get the verdict of
    the first full check, so repeated frames cost a comparison.
    """

    def __init__(self, frames: list[FrameTruth], eval_threshold: float):
        self.frames = {f.image_id: f for f in frames}
        self.eval_threshold = eval_threshold
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self._grids: dict[str, np.ndarray] = {}
        self._good: dict[str, bytes] = {}

    def frame(self, image_id: str, exit_code: int, data: bytes | None) -> bool:
        def problems():
            f = self.frames[image_id]
            if image_id not in self._grids:
                self._grids[image_id] = expected_depth_grid(f)
            return check_frame(json.loads(data), f, self._grids[image_id])

        return self._record(image_id, exit_code, data, problems)

    def report(self, exit_code: int, data: bytes | None) -> bool:
        frames = list(self.frames.values())
        return self._record(
            "report", exit_code, data, lambda: check_report(json.loads(data), frames, self.eval_threshold)
        )

    def _record(self, key, exit_code, data, problems) -> bool:
        self.attempted += 1
        if exit_code != 0 or data is None:
            self.failed += 1
            self._note(f"{key}: exit {exit_code}")
            return False
        if self._good.get(key) == data:
            return True
        try:
            found = problems()
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            found = [f"unreadable output: {e!r}"]
        if found:
            self.failed += 1
            self.wrong += 1
            self._note(f"{key}: {found[0]} (+{len(found) - 1} more)")
            return False
        self._good[key] = data
        return True

    def _note(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)
