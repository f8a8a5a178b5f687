"""Tests of the benchmark's oracle and tracer.

    python -m pytest -q bench/test_oracle.py

The program's real outputs must pass the oracle, and each seeded corruption
of them must be reported as one failed operation.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl
from oracle import QUANT_RTOL, Checker, check_frame, disparity_grid, expected_depth_grid, oracle_iou
from run import Harness
from tracer import Tracer


@pytest.fixture(scope="module")
def crowd(tmp_path_factory):
    h = Harness(wl.WORKLOADS["crowd"], seed=7, work=tmp_path_factory.mktemp("crowd"))
    h.set_up()
    return h


def _frame_doc(h, i=0):
    f = h.frames[i]
    return f, json.loads(h.dist_path(f.image_id).read_bytes())


def _verdict(h, image_id, doc):
    checker = Checker(h.frames, wl.EVAL_THRESHOLD_M)
    ok = checker.frame(image_id, 0, json.dumps(doc).encode())
    return ok, checker


def test_iou():
    assert oracle_iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7)
    assert oracle_iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0
    assert oracle_iou((0, 0, 4, 4), (0, 0, 4, 4)) == 1.0


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_planted_frames_fit_the_tolerances(name):
    """Planted boxes never overlap, duplicates overlap their object, REV error is within bound."""
    for f in wl.make_frames(wl.WORKLOADS[name], seed=3):
        assert len(f.raw) == wl.WORKLOADS[name].total
        for i, a in enumerate(f.planted):
            assert all(oracle_iou(a.bbox, b.bbox) == 0.0 for b in f.planted[i + 1 :])
        grid = expected_depth_grid(f)
        for p, d in zip(f.planted, f.depths):
            x0, y0, x1, y1 = (int(v) for v in p.bbox)
            assert abs(float(np.median(grid[y0:y1, x0:x1])) - d) <= d * QUANT_RTOL / 2
        assert disparity_grid(f).dtype == np.float32


def test_same_seed_same_frames():
    w = wl.WORKLOADS["cold_cli"]
    assert wl.make_frames(w, 5) == wl.make_frames(w, 5)
    assert wl.make_frames(w, 5) != wl.make_frames(w, 6)


def test_program_outputs_pass(crowd):
    assert crowd.checker.attempted == len(crowd.frames) + 1
    assert crowd.checker.failed == 0


def test_shifted_rev_is_caught(crowd):
    f, doc = _frame_doc(crowd)
    doc["objects"][3]["rev_m"] *= 1 + 1e-5
    ok, checker = _verdict(crowd, f.image_id, doc)
    assert not ok and checker.failed == 1 and checker.wrong == 1


def _lower_middle(win):
    return float(np.partition(win.ravel(), win.size // 2 - 1)[win.size // 2 - 1])


@pytest.mark.parametrize(
    "pool",
    [
        lambda g, r0, r1, c0, c1: float(g[r0:r1, c0:c1].mean()),
        lambda g, r0, r1, c0, c1: float(g[(r0 + r1) // 2, (c0 + c1) // 2]),
        lambda g, r0, r1, c0, c1: float(g[r0:r1, c0:c1].min()),
        lambda g, r0, r1, c0, c1: _lower_middle(g[r0:r1, c0:c1]),
        lambda g, r0, r1, c0, c1: float(np.median(g[r0 + 1 : r1 + 1, c0:c1])),
        lambda g, r0, r1, c0, c1: float(np.median(g[r0:r1, c0 - 1 : c1 - 1])),
    ],
    ids=["mean", "centre_pixel", "min", "lower_middle", "one_row_down", "one_column_left"],
)
def test_wrong_pooling_is_caught(crowd, pool):
    """Every box of every frame: pooling other than the exact median of the box is rejected."""
    for i, f in enumerate(crowd.frames):
        grid = expected_depth_grid(f)
        _, doc = _frame_doc(crowd, i)
        for o in doc["objects"]:
            c0, r0, c1, r1 = (int(v) for v in o["bbox"])
            o["rev_m"] = pool(grid, r0, r1, c0, c1)
            o["abs_m"] = f.calibration.apply(o["rev_m"])
        problems = check_frame(doc, f, grid)
        assert len(problems) == len(doc["objects"]) == len(f.planted)
        assert all(p.startswith("rev_m") for p in problems)


def test_dropped_box_is_caught(crowd):
    f, doc = _frame_doc(crowd)
    del doc["objects"][-1]
    ok, checker = _verdict(crowd, f.image_id, doc)
    assert not ok and checker.failed == 1


def test_surviving_duplicate_is_caught(crowd):
    f, doc = _frame_doc(crowd)
    planted = set(f.planted)
    dup = next(d for d in f.raw if d not in planted and d.confidence >= f.min_conf)
    twin = next(o for o in doc["objects"] if oracle_iou(tuple(o["bbox"]), dup.bbox) > 0.5)
    doc["objects"].append(dict(twin, bbox=list(dup.bbox), confidence=dup.confidence))
    ok, checker = _verdict(crowd, f.image_id, doc)
    assert not ok and checker.failed == 1
    assert "overlap above the threshold" in checker.problems[0]


def test_surviving_false_positive_is_caught(crowd):
    f, doc = _frame_doc(crowd)
    fp = next(d for d in f.raw if d.confidence < f.min_conf)
    doc["objects"].append(dict(doc["objects"][0], bbox=list(fp.bbox), confidence=fp.confidence,
                               class_name=fp.class_name))
    ok, checker = _verdict(crowd, f.image_id, doc)
    assert not ok and checker.failed == 1


def test_wrong_abs_is_caught(crowd):
    f, doc = _frame_doc(crowd)
    doc["objects"][0]["abs_m"] += 1e-6
    ok, checker = _verdict(crowd, f.image_id, doc)
    assert not ok and checker.failed == 1


def test_failed_exit_is_failed_but_not_wrong(crowd):
    checker = Checker(crowd.frames, wl.EVAL_THRESHOLD_M)
    assert not checker.frame(crowd.frames[0].image_id, 2, None)
    assert (checker.attempted, checker.failed, checker.wrong) == (1, 1, 0)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.update(rmse_m=r["rmse_m"] + 1e-3),
        lambda r: r.update(unmatched_truths=1),
        lambda r: r.update(accuracy=0.99),
        lambda r: r["pairs"].pop(),
        lambda r: r["pairs"][0].update(predicted_m=r["pairs"][0]["truth_m"] + 0.1),
    ],
    ids=["rmse", "unmatched", "accuracy", "missing_pair", "pair_error"],
)
def test_corrupt_report_is_caught(crowd, corrupt):
    report = json.loads(crowd.report.read_bytes())
    checker = Checker(crowd.frames, wl.EVAL_THRESHOLD_M)
    assert checker.report(0, json.dumps(report).encode())
    corrupt(report)
    assert not checker.report(0, json.dumps(report).encode())
    assert (checker.attempted, checker.failed, checker.wrong) == (2, 1, 1)


def test_tracer_wraps_every_binding_and_restores(crowd):
    from monodist import detect, evaluate

    originals = (detect.iou, evaluate.iou, detect.nms)
    tracer = Tracer()
    tracer.install()
    try:
        assert {"detect.iou", "evaluate.iou", "cli.BackendConfig.fetch_depth_bytes"} <= tracer.installed
        assert detect.iou is not originals[0] and evaluate.iou is not originals[1]
        crowd.run_op("predict", crowd.frames[0].image_id)
        crowd.run_op("evaluate")
    finally:
        tracer.restore()
    assert (detect.iou, evaluate.iou, detect.nms) == originals
    assert tracer.calls["detect.iou"] > 0 and tracer.calls["evaluate.iou"] > 0
    assert tracer.counts["detect.dets_in"] == len(crowd.frames[0].raw)
    assert tracer.counts["detect.dets_after_nms"] == len(crowd.frames[0].planted)
    assert tracer.counts["roi.failures"] == 0
    # self times partition the outermost span
    total = sum(tracer.self_ns.values())
    assert 0 < tracer.self_ns["cli.dispatch"] < total
