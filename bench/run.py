#!/usr/bin/env python3
"""monodist benchmark: seeded synthetic frames through the user-facing CLI.

    python3 bench/run.py --workload crowd --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is driven only through
`monodist.cli.dispatch([...])` in-process, or `python -m monodist.cli` as a
child process for `cold_cli`. Every output is checked by `oracle.py`.

Times are reported in ref: the median duration of a fixed reference
operation timed alongside the program's operations in the same run, which
cancels most of the host's speed drift (see README.md). Only `setup_s` is raw
wall time. The last line of stdout is one JSON object; `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a separate traced
pass. Details go to stderr.
"""
from __future__ import annotations

import os

# One thread for every BLAS/OpenMP pool, before numpy is imported here or in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import workloads as wl
from oracle import Checker
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUPS = 3  # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 60
# Share of --seconds given to each pass. A cold evaluate costs as much as a
# cold predict but counts once per round, so cold runs give it more time.
SHARE = {"predict": 0.65, "evaluate": 0.3}
COLD_SHARE = {"predict": 0.5, "evaluate": 0.45}
TRACE_SHARE = {"untraced": 0.3, "traced": 0.4, "evaluate": 0.25}
MIN_ROUNDS = 2
LOOP_PER_DETECTION = 20
IMPORTTIME_CHILDREN = 3

# per-layer metric -> span names whose self time it sums, per predict frame
FRAME_LAYERS = {
    "cli.load_config": ("cli.load_config",),
    "cli.fetch": ("cli.BackendConfig.fetch_depth_bytes", "cli.BackendConfig.fetch_detection_bytes"),
    "cli.dispatch.self": ("cli.dispatch",),
    "maps.read_pfm": ("maps.read_pfm",),
    "maps.disparity_to_depth": ("maps.disparity_to_depth",),
    "detect.parse_detections": ("detect.parse_detections",),
    "detect.filter_confidence": ("detect.filter_confidence",),
    "detect.nms": ("detect.nms", "detect.iou"),  # iou is only called by nms
    "roi.measure_objects.self": ("roi.measure_objects",),
    "roi.median_depth": ("roi.median_depth",),
    "roi.project_bbox": ("roi.project_bbox",),
    "roi.serialize_distances": ("roi.serialize_distances",),
    "calib.apply": ("calib.apply",),
    "calib.deserialize_model": ("calib.deserialize_model",),
}
FRAME_COUNTS = (
    "maps.pixels", "detect.dets_in", "detect.dets_after_conf", "detect.dets_after_nms",
    "roi.boxes", "roi.pixels_pooled", "roi.failures",
)
# ... and per evaluate call
EVAL_LAYERS = {
    "evaluate.parse": ("evaluate.parse_ground_truth", "roi.parse_distances"),
    "evaluate.match_objects": ("evaluate.match_objects", "evaluate.iou"),  # iou only from here
    "evaluate.build_report": ("evaluate.build_report",),
}
EVAL_COUNTS = ("evaluate.pairs",)


class BenchError(Exception):
    pass


# ---- reference operations ----------------------------------------------------

class InProcessRef:
    """An interpreter loop and small np.median calls, plus one full-frame numpy pass.

    The mix follows the frame's own work: Python-level bookkeeping that
    grows with the number of detections (LOOP_PER_DETECTION iterations per
    raw detection), per-box medians over small windows, and, for operations
    that read a depth map, one pass over a map of the frame's size (the
    float32 to float64 upcast and finiteness check that decoding a map
    costs). The pass writes into buffers allocated once, because the cost
    of a fresh full-frame allocation depends on the allocator's history and
    drifts on its own. Its inputs are fixed, independent of the seed.
    """

    def __init__(self, detections: int, frame_shape: tuple[int, int] | None):
        rng = np.random.default_rng(0)
        self.iterations = LOOP_PER_DETECTION * detections
        self.frame = None
        if frame_shape is not None:
            self.frame = rng.random(frame_shape, dtype=np.float32)
            self.upcast = np.empty(frame_shape)
            self.finite = np.empty(frame_shape, dtype=bool)
        self.windows = [rng.random((24, 32)) for _ in range(16)]

    def __call__(self) -> int:
        t0 = perf_counter_ns()
        acc = 0.0
        boxes = []
        for i in range(self.iterations):
            box = (i * 0.5, i * 0.25, i * 0.5 + 7.0, i * 0.25 + 3.0)
            acc += (box[2] - box[0]) * (box[3] - box[1])
            boxes.append({"x0": box[0], "w": box[2] - box[0]})
        boxes.sort(key=lambda b: -b["w"])
        for win in self.windows:
            acc += float(np.median(win))
        if self.frame is not None:
            np.copyto(self.upcast, self.frame)
            acc += float(np.isfinite(self.upcast, out=self.finite).all())
        if not acc >= 0:
            raise BenchError("reference operation lost its result")
        return perf_counter_ns() - t0


class ChildRef:
    """A bare `python -c "import numpy"` child: process start plus numpy import."""

    def __init__(self, env: dict):
        self.env = env

    def __call__(self) -> int:
        t0 = perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, "-c", "import numpy"], env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
        )
        dur = perf_counter_ns() - t0
        if proc.returncode != 0:
            raise BenchError("reference child failed")
        return dur


# ---- the program's operations -----------------------------------------------

class Harness:
    """One workload's inputs in `work`, its reference operations and its oracle."""

    def __init__(self, w: wl.Workload, seed: int, work: Path):
        self.w = w
        self.work = work
        self.frames = wl.make_frames(w, seed)
        self.checker = Checker(self.frames, wl.EVAL_THRESHOLD_M)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # Children load cached bytecode, as an installed CLI does.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        if w.cold:
            ref = ChildRef(self.env)
            self.refs = {"predict": ref, "evaluate": ref}
        else:
            # evaluate reads no depth map, so its reference has no full-frame pass
            self.refs = {
                "predict": InProcessRef(w.total, (w.height, w.width)),
                "evaluate": InProcessRef(w.total, None),
            }
        self.config = work / "config.json"
        self.report = work / "report.json"
        import monodist.cli

        self.cli = monodist.cli

    def dist_path(self, image_id: str) -> Path:
        return self.work / "out" / f"{image_id}.dist.json"

    def predict_argv(self, image_id: str) -> list[str]:
        return ["predict", "--config", str(self.config), "--image-id", image_id,
                "--out", str(self.dist_path(image_id))]

    def evaluate_argv(self) -> list[str]:
        ids = [f.image_id for f in self.frames]
        return (["evaluate", "--pred"] + [str(self.dist_path(i)) for i in ids]
                + ["--gt"] + [str(self.work / "frames" / f"{i}.gt.json") for i in ids]
                + ["--threshold", str(wl.EVAL_THRESHOLD_M), "--out", str(self.report)])

    def dispatch(self, argv: list[str]) -> tuple[int, int]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            t0 = perf_counter_ns()
            code = self.cli.dispatch(argv)
            dur = perf_counter_ns() - t0
        return code, dur

    def child(self, argv: list[str], prefix: list[str] | None = None) -> tuple[int, int]:
        cmd = [sys.executable] + (prefix or ["-m", "monodist.cli"]) + argv
        t0 = perf_counter_ns()
        proc = subprocess.run(cmd, env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        dur = perf_counter_ns() - t0
        if proc.returncode != 0:
            print(f"child {argv[0]} exited {proc.returncode}: "
                  f"{proc.stderr.decode(errors='replace').strip()[:300]}", file=sys.stderr)
        return proc.returncode, dur

    def run_op(self, kind: str, image_id: str | None = None, traced: Tracer | None = None):
        """One predict or evaluate operation, checked by the oracle.

        Returns its duration in ns and, for a traced child, the child's tracer totals.
        """
        argv = self.predict_argv(image_id) if kind == "predict" else self.evaluate_argv()
        out = self.dist_path(image_id) if kind == "predict" else self.report
        out.unlink(missing_ok=True)
        snapshot = None
        if self.w.cold and traced is not None:
            trace_file = self.work / "child_trace.json"
            code, dur = self.child(argv, [str(BENCH / "traced_child.py"), str(trace_file)])
            snapshot = json.loads(trace_file.read_text()) if code == 0 else None
        elif self.w.cold:
            code, dur = self.child(argv)
        else:
            code, dur = self.dispatch(argv)
        data = out.read_bytes() if out.is_file() else None
        if kind == "predict":
            self.checker.frame(image_id, code, data)
        else:
            self.checker.report(code, data)
        return dur, snapshot

    # ---- set-up ----

    def set_up(self) -> float:
        """Render and write every input, then run one warm-up round. Returns seconds."""
        t0 = perf_counter()
        frames_dir = self.work / "frames"
        for d in ("frames", "scenes", "out"):
            (self.work / d).mkdir(parents=True, exist_ok=True)
        for f in self.frames:
            scene = self.work / "scenes" / f"{f.image_id}.scene.json"
            scene.write_text(wl.scene_json(f))
            prefix = frames_dir / f.image_id
            code, _ = self.dispatch(["synth", "--scene", str(scene), "--out-prefix", str(prefix)])
            if code != 0:
                raise BenchError(f"monodist synth exited {code} for {f.image_id}")
            pfm = frames_dir / f"{f.image_id}.pfm"
            if f.depth_kind == "depth":
                wl.disparity_file_to_depth_file(pfm, pfm, f)
            (frames_dir / f"{f.image_id}.det.json").write_text(wl.det_json(f))
            (frames_dir / f"{f.image_id}.gt.json").write_text(wl.gt_json(f))
        (self.work / "model.calib.json").write_text(wl.calibration_json(wl.CALIBRATION))
        self.config.write_text(wl.config_json(self.w))
        for f in self.frames:
            self.run_op("predict", f.image_id)
        self.run_op("evaluate")
        if self.checker.failed:
            raise BenchError(f"warm-up failed: {self.checker.problems[:3]}")
        return perf_counter() - t0

    # ---- timed passes ----

    def pass_(self, kind: str, seconds: float, traced: Tracer | None = None):
        """Whole rounds of `kind` operations, each preceded by one reference operation.

        Returns (operation ns, reference ns, child trace snapshots).
        """
        ops: list[int] = []
        refs: list[int] = []
        ref = self.refs[kind]
        snaps: list[dict] = []
        ids = [f.image_id for f in self.frames] if kind == "predict" else [None]
        gc.collect()
        start = perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
            for image_id in ids:
                refs.append(ref())
                dur, snap = self.run_op(kind, image_id, traced)
                ops.append(dur)
                if snap is not None:
                    snaps.append(snap)
            rounds += 1
        return ops, refs, snaps

    def peak_alloc_mib(self) -> float:
        """Median tracemalloc peak of one in-process predict, over one round of frames."""
        peaks = []
        for f in self.frames:
            gc.collect()
            tracemalloc.start()
            try:
                code, _ = self.dispatch(self.predict_argv(f.image_id))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            out = self.dist_path(f.image_id)
            self.checker.frame(f.image_id, code, out.read_bytes() if out.is_file() else None)
        return statistics.median(peaks) / 2**20

    def import_times_ms(self) -> tuple[float, float]:
        """Median (monodist's own modules, numpy) import time from `python -X importtime`."""
        own, numpy_ms = [], []
        for _ in range(IMPORTTIME_CHILDREN):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import monodist.cli"],
                env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise BenchError("importing monodist.cli failed")
            mine = numpy_us = 0
            for line in proc.stderr.decode().splitlines():
                parts = line.removeprefix("import time:").split("|")
                if len(parts) != 3 or not parts[0].strip().isdigit():
                    continue
                name = parts[2].strip()
                if name.split(".")[0] == "monodist":
                    mine += int(parts[0])
                elif name == "numpy":
                    numpy_us = int(parts[1])
            own.append(mine / 1000)
            numpy_ms.append(numpy_us / 1000)
        return statistics.median(own), statistics.median(numpy_ms)


# ---- runs --------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def in_ref(ops: list[int], refs: list[int]) -> list[float]:
    """Each operation's duration in units of the reference operation timed just before it."""
    return [op / ref for op, ref in zip(ops, refs)]


def end_to_end(h: Harness, seconds: float, import_s: float) -> tuple[dict, dict]:
    setup_s = import_s + statistics.median(h.set_up() for _ in range(SETUPS))
    share = COLD_SHARE if h.w.cold else SHARE
    frame_ns, frame_ref, _ = h.pass_("predict", seconds * share["predict"])
    eval_ns, eval_ref, _ = h.pass_("evaluate", seconds * share["evaluate"])
    peak = h.peak_alloc_mib()
    frames = in_ref(frame_ns, frame_ref)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "frame_p50": metric(statistics.median(frames), "ref"),
        "frames_per_kref": metric(1000.0 * len(frames) / sum(frames), "frames/kref"),
        "evaluate_p50": metric(statistics.median(in_ref(eval_ns, eval_ref)), "ref"),
        "peak_alloc_mib": metric(peak, "MiB"),
    }
    detail = {
        "frames": len(frame_ns), "evaluate_calls": len(eval_ns),
        "ref_ms": statistics.median(frame_ref) / 1e6,
        "evaluate_ref_ms": statistics.median(eval_ref) / 1e6,
        "frame_p50_ms": statistics.median(frame_ns) / 1e6,
        "evaluate_p50_ms": statistics.median(eval_ns) / 1e6,
    }
    return metrics, detail


def per_layer(h: Harness, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    tracer.install()
    try:
        render_s = []
        for _ in range(SETUPS):
            tracer.reset()
            h.set_up()
            render_s.append(tracer.self_ns.get("synth.render_scene", 0) / 1e9)
    finally:
        tracer.restore()

    plain_ns, plain_ref, _ = h.pass_("predict", seconds * TRACE_SHARE["untraced"])
    if not h.w.cold:
        tracer.install()
    try:
        tracer.reset()
        frame_ns, frame_ref, frame_snaps = h.pass_("predict", seconds * TRACE_SHARE["traced"], tracer)
        frame_stats = _merge(tracer, frame_snaps)
        tracer.reset()
        eval_ns, eval_ref, eval_snaps = h.pass_("evaluate", seconds * TRACE_SHARE["evaluate"], tracer)
        eval_stats = _merge(tracer, eval_snaps)
    finally:
        tracer.restore()
    # import cost does not depend on the workload, but every traced run reports every metric
    cli_ms, numpy_ms = h.import_times_ms()

    ref = statistics.median(plain_ref + frame_ref)
    eref = statistics.median(eval_ref)
    n, m = len(frame_ns), len(eval_ns)
    out = {}
    for name, spans in FRAME_LAYERS.items():
        out[name] = metric(sum(frame_stats["self_ns"].get(s, 0) for s in spans) / n / ref, "ref")
    for name in FRAME_COUNTS:
        out[name] = metric(frame_stats["counts"].get(name, 0) / n, "count")
    out["detect.iou.calls"] = metric(frame_stats["calls"].get("detect.iou", 0) / n, "count")
    for name, spans in EVAL_LAYERS.items():
        out[name] = metric(sum(eval_stats["self_ns"].get(s, 0) for s in spans) / m / eref, "ref")
    for name in EVAL_COUNTS:
        out[name] = metric(eval_stats["counts"].get(name, 0) / m, "count")
    out["cli.import_ms"] = metric(cli_ms, "ms")
    out["numpy.import_ms"] = metric(numpy_ms, "ms")
    out["synth.render_scene"] = metric(statistics.median(render_s), "s")
    traced_p50 = statistics.median(in_ref(frame_ns, frame_ref))
    plain_p50 = statistics.median(in_ref(plain_ns, plain_ref))
    out["trace.overhead"] = metric(traced_p50 / plain_p50, "ratio")
    spanned = sum(frame_stats["self_ns"].values())
    out["trace.unattributed"] = metric((sum(frame_ns) - spanned) / n / ref, "ref")
    out["host.ref_ms"] = metric(ref / 1e6, "ms")

    mapped = {s for spans in (*FRAME_LAYERS.values(), *EVAL_LAYERS.values()) for s in spans}
    called = set(frame_stats["calls"]) | set(eval_stats["calls"])
    detail = {
        "frames": n, "evaluate_calls": m,
        "absent": sorted(mapped - tracer.installed),
        "new": sorted(called - mapped),
        "broken_counters": sorted(tracer.broken_counters),
    }
    return out, detail


def _merge(tracer: Tracer, snaps: list[dict]) -> dict:
    """The in-process tracer's totals, or the sum of the traced children's."""
    if not snaps:
        return tracer.snapshot()
    total = {"self_ns": {}, "calls": {}, "counts": {}}
    for snap in snaps:
        for key, part in total.items():
            for name, v in snap[key].items():
                part[name] = part.get(name, 0) + v
    return total


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "monodist" / "__init__.py").is_file():
        print(f"bench: no monodist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False  # cache monodist's bytecode, as an installed package does
    t0 = perf_counter()
    import monodist.cli  # timed as part of set-up

    import_s = perf_counter() - t0
    if Path(monodist.cli.__file__).resolve().parent != SRC / "monodist":
        print(f"bench: imported monodist from {monodist.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = wl.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        h = Harness(w, args.seed, work)
        if args.trace:
            metrics, detail = per_layer(h, args.seconds)
        else:
            metrics, detail = end_to_end(h, args.seconds, import_s)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    c = h.checker
    detail.update(workload=w.name, seed=args.seed, problems=c.problems)
    print(json.dumps(detail), file=sys.stderr)
    print(json.dumps({"correct": c.wrong == 0, "attempted": c.attempted,
                      "failed": c.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
