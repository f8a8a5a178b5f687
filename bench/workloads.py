"""Seeded synthetic inputs for the benchmark workloads.

Every workload is a round of frames. Each frame has planted objects laid out
one per grid cell, so planted boxes never overlap each other. Each planted
box is textured (`oracle.layers`) so that only an exact median of its
window gives the planted depth. The raw
detections of a frame are every planted box at high confidence, jittered
duplicates of some planted boxes above the confidence threshold (which NMS
must suppress), and low-confidence false positives (which the confidence
filter must drop). The same seed gives the same frames.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import Calibration, Det, FrameTruth, float32_depth_grid, layers, oracle_iou

CLASSES = ((0, "car"), (1, "person"), (2, "cyclist"), (3, "truck"))
DEPTH_RANGE = (0.1, 100.0)
BACKGROUND_M = 80.0
MIN_CONF = 0.25
IOU_THRESHOLD = 0.45
EVAL_THRESHOLD_M = 0.2
# A monotone increasing curve over the planted depths, so every ABS is positive.
CALIBRATION = Calibration(c0=0.35, c1=0.92, c2=0.0015, h=1.25)


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    frames: int  # frames per round; every pass runs whole rounds
    planted: int
    cell: int  # grid cell edge in pixels; one planted object per cell
    min_box: int
    dups: tuple[int, int]  # duplicates per planted object, inclusive range
    total: int  # raw detections per frame; the rest are false positives
    depth_kind: str  # "depth" (metric map) or "disparity"
    cold: bool  # predict and evaluate run as child processes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("crowd", 1242, 375, 8, 100, 60, 24, (1, 2), 300, "depth", False),
        Workload("hires", 1920, 1080, 4, 6, 300, 80, (0, 0), 8, "disparity", False),
        Workload("cold_cli", 1024, 320, 4, 10, 100, 30, (0, 1), 20, "disparity", True),
    )
}

JITTER_PX = 3
MIN_DUP_IOU = 0.6


def make_frames(w: Workload, seed: int) -> list[FrameTruth]:
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    return [_make_frame(w, f"{w.name}{i:02d}", rng) for i in range(w.frames)]


def _make_frame(w: Workload, image_id: str, rng: np.random.Generator) -> FrameTruth:
    cols, rows = w.width // w.cell, w.height // w.cell
    cells = rng.choice(cols * rows, size=w.planted, replace=False)
    planted: list[Det] = []
    depths: list[float] = []
    dets: list[Det] = []
    for cell in sorted(int(c) for c in cells):
        cx, cy = (cell % cols) * w.cell, (cell // cols) * w.cell
        inner = w.cell - 2 * JITTER_PX
        bw = 2 * int(rng.integers(w.min_box // 2, inner // 2, endpoint=True))  # even; see layers
        bh = int(rng.integers(w.min_box, inner, endpoint=True))
        x0 = cx + JITTER_PX + int(rng.integers(0, inner - bw, endpoint=True))
        y0 = cy + JITTER_PX + int(rng.integers(0, inner - bh, endpoint=True))
        cid, cname = CLASSES[int(rng.integers(len(CLASSES)))]
        box = (float(x0), float(y0), float(x0 + bw), float(y0 + bh))
        obj = Det(cid, cname, round(float(rng.uniform(0.8, 0.99)), 4), box)
        planted.append(obj)
        depths.append(round(float(rng.uniform(3.0, 60.0)), 3))
        dets.append(obj)
        for _ in range(int(rng.integers(w.dups[0], w.dups[1], endpoint=True))):
            dets.append(Det(cid, cname, round(float(rng.uniform(0.3, 0.75)), 4),
                            _jitter(box, rng)))
    while len(dets) < w.total:
        cid, cname = CLASSES[int(rng.integers(len(CLASSES)))]
        bw, bh = (int(v) for v in rng.integers(w.min_box, w.cell, size=2, endpoint=True))
        x0 = int(rng.integers(0, w.width - bw, endpoint=True))
        y0 = int(rng.integers(0, w.height - bh, endpoint=True))
        box = (float(x0), float(y0), float(x0 + bw), float(y0 + bh))
        dets.append(Det(cid, cname, round(float(rng.uniform(0.01, 0.24)), 4), box))
    order = rng.permutation(len(dets))
    return FrameTruth(
        image_id=image_id,
        width=w.width,
        height=w.height,
        depth_kind=w.depth_kind,
        depth_range=DEPTH_RANGE,
        background_m=BACKGROUND_M,
        planted=tuple(planted),
        depths=tuple(depths),
        raw=tuple(dets[int(i)] for i in order),
        min_conf=MIN_CONF,
        iou_threshold=IOU_THRESHOLD,
        calibration=CALIBRATION,
    )


def _jitter(box, rng) -> tuple[float, float, float, float]:
    """A box shifted by a few pixels that still overlaps `box` well above the NMS threshold."""
    while True:
        d = rng.integers(-JITTER_PX, JITTER_PX, size=4, endpoint=True)
        cand = tuple(float(b + int(v)) for b, v in zip(box, d))
        if cand != box and cand[0] < cand[2] and cand[1] < cand[3] and oracle_iou(box, cand) > MIN_DUP_IOU:
            return cand


# ---- files the program reads -------------------------------------------------

def scene_json(f: FrameTruth) -> str:
    return json.dumps({
        "map_width": f.width,
        "map_height": f.height,
        "background_depth_m": f.background_m,
        "depth_range": {"min_m": f.depth_range[0], "max_m": f.depth_range[1]},
        "objects": [
            {"class_name": p.class_name, "depth_m": depth, "bbox": list(rect)}
            for p, d in zip(f.planted, f.depths)
            for depth, rect in layers(p.bbox, d)
        ],
    })


def det_json(f: FrameTruth) -> str:
    return json.dumps({
        "image": f.image_id,
        "width": f.width,
        "height": f.height,
        "detections": [
            {"class_id": d.class_id, "class_name": d.class_name,
             "confidence": d.confidence, "bbox": list(d.bbox)}
            for d in f.raw
        ],
    })


def gt_json(f: FrameTruth) -> str:
    return json.dumps({
        "image": f.image_id,
        "objects": [
            {"class_name": p.class_name, "abs_m": f.truth_abs(d), "bbox": list(p.bbox)}
            for p, d in zip(f.planted, f.depths)
        ],
    })


def calibration_json(c: Calibration) -> str:
    return json.dumps({"c0": c.c0, "c1": c.c1, "c2": c.c2, "h_m": c.h,
                       "fit_rmse_m": 0.0, "n_samples": 0})


def config_json(w: Workload) -> str:
    return json.dumps({
        "backend": {"mode": "files", "depth_dir": "frames", "det_dir": "frames",
                    "depth_kind": w.depth_kind},
        "depth_range": {"min_m": DEPTH_RANGE[0], "max_m": DEPTH_RANGE[1]},
        "min_conf": MIN_CONF,
        "iou_threshold": IOU_THRESHOLD,
        "calibration_model_path": "model.calib.json",
        "eval_threshold_m": EVAL_THRESHOLD_M,
    })


def read_pfm(path: Path) -> np.ndarray:
    """Grayscale little-endian PFM as written by `monodist synth`, top row first."""
    data = path.read_bytes()
    magic, dims, scale, payload = data.split(b"\n", 3)
    if magic != b"Pf" or float(scale) >= 0:
        raise ValueError(f"{path}: expected a little-endian grayscale PFM")
    width, height = (int(v) for v in dims.split())
    return np.frombuffer(payload, dtype="<f4").reshape(height, width)[::-1]


def write_pfm(path: Path, grid: np.ndarray) -> None:
    height, width = grid.shape
    header = f"Pf\n{width} {height}\n-1.0\n".encode("ascii")
    path.write_bytes(header + np.ascontiguousarray(grid[::-1], dtype="<f4").tobytes())


def disparity_file_to_depth_file(src: Path, dst: Path, f: FrameTruth) -> None:
    """Turn a rendered disparity PFM into the metric-depth PFM a scaled network would emit."""
    write_pfm(dst, float32_depth_grid(read_pfm(src), f.depth_range))

