"""Command-line pipeline: calibrate, predict, evaluate, synth, annotate.

Depth and detection models stay outside the process: a backend is either a
directory of precomputed files or a command template that emits the same
bytes on stdout.
"""
from __future__ import annotations

import argparse
import enum
import functools
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field, replace
from html import escape
from pathlib import Path

import numpy as np

from . import calib, detect, evaluate, maps, roi, synth
from .codec import _decode
from .errors import BackendError, DataError, MonodistError

CONFIG_ENV_VAR = "MONODIST_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class BackendMode(enum.Enum):
    FILES = "files"
    PROCESS = "process"


# an image id becomes a file name and a shell word: no path, shell syntax or leading "." or "-"
_IMAGE_ID = re.compile(r"[A-Za-z0-9_][A-Za-z0-9._-]*")


@dataclass(frozen=True)
class BackendConfig:
    """The depth and detection sources: directories of `<image_id>` files or command templates."""

    mode: BackendMode
    depth: Path | str
    det: Path | str
    depth_kind: maps.MapKind = maps.MapKind.DISPARITY

    def fetch_depth_bytes(self, image_id: str) -> bytes:
        return self._fetch(self.depth, image_id, ".pfm", "depth map")

    def fetch_detection_bytes(self, image_id: str) -> bytes:
        return self._fetch(self.det, image_id, ".det.json", "detections")

    def _fetch(self, source: Path | str, image_id: str, suffix: str, what: str) -> bytes:
        if not _IMAGE_ID.fullmatch(image_id):
            raise BackendError(f"bad image id {image_id!r}, expected {_IMAGE_ID.pattern}")
        if self.mode is BackendMode.FILES:
            path = source / f"{image_id}{suffix}"
            if not path.is_file():
                raise BackendError(f"missing {what} {path}")
            return path.read_bytes()
        cmd = source.format(image_id=image_id)
        proc = subprocess.run(cmd, shell=True, capture_output=True)
        if proc.returncode != 0:
            raise BackendError(
                f"backend command {cmd!r} exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()}"
            )
        return proc.stdout


@dataclass(frozen=True)
class PipelineConfig:
    backend: BackendConfig
    depth_range: maps.DepthRange = field(default_factory=maps.DepthRange)
    min_conf: float = detect.DEFAULT_MIN_CONFIDENCE
    iou_threshold: float = detect.DEFAULT_IOU_THRESHOLD
    calibration_model: calib.CalibrationModel | None = None

    def __post_init__(self):
        detect._check_thresholds(self.min_conf, self.iou_threshold)


def load_config(path: Path, overrides: dict | None = None) -> PipelineConfig:
    """Build a PipelineConfig from a JSON file; override values win over file values."""
    try:
        data = path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read config {path}: {e}") from None

    try:
        with _decode(data, DataError, "config") as doc:
            if overrides:
                doc.update({k: v for k, v in overrides.items() if v is not None})
            b = doc["backend"]
            mode = BackendMode(b["mode"])
            base = path.parent
            files = mode is BackendMode.FILES
            sources = []
            for key in ("depth_dir", "det_dir") if files else ("depth_command", "det_command"):
                source = b.get(key)
                if not (source and isinstance(source, str)):
                    raise DataError(f"{mode.value} backend requires {key}")
                if files:
                    source = base / source
                    if not source.is_dir():
                        raise DataError(f"{key} {source} is not a directory")
                else:
                    try:
                        source.format(image_id="x")
                    except (KeyError, IndexError, ValueError, AttributeError, TypeError) as e:
                        raise DataError(f"{key} {source!r} substitutes only {{image_id}} ({e!r}): "
                                        "literal braces must be doubled, {{ and }}") from None
                sources.append(source)
            backend = BackendConfig(mode, *sources, maps.MapKind(b.get("depth_kind", "disparity")))
            model = None
            model_path = doc.get("calibration_model_path")
            if model_path:
                model = calib.deserialize_model((base / model_path).read_bytes())
            return PipelineConfig(
                backend=backend,
                depth_range=maps.DepthRange.from_dict(doc.get("depth_range", {})),
                min_conf=float(doc.get("min_conf", detect.DEFAULT_MIN_CONFIDENCE)),
                iou_threshold=float(doc.get("iou_threshold", detect.DEFAULT_IOU_THRESHOLD)),
                calibration_model=model,
            )
    except OSError as e:
        raise DataError(f"cannot read referenced file: {e}") from None


def predict_image(
    cfg: PipelineConfig, image_id: str
) -> tuple[detect.Columns, list[roi.RoiFailure]]:
    """Run the full fusion pipeline for one image.

    confidence filter -> NMS -> median pooling per box (in disparity space
    for a disparity map; only each box's median is converted to depth) ->
    calibration when a model is configured. Detections are fetched and
    pruned before the depth map is read, so the map is never held alongside
    the NMS work.
    """
    dets = detect.parse_detections(cfg.backend.fetch_detection_bytes(image_id))
    dets = detect.nms(detect.filter_confidence(dets, cfg.min_conf), cfg.iou_threshold)
    depth_map = maps.read_pfm(
        cfg.backend.fetch_depth_bytes(image_id), kind=cfg.backend.depth_kind
    )
    objects, failures = roi.measure_columns(depth_map, dets, cfg.depth_range)
    if cfg.calibration_model is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below instead
            abs_m = calib.apply(cfg.calibration_model, objects.rev)
        roi._check_distances(objects.rev, abs_m)
        objects = objects._replace(distances=abs_m, calibrated=np.ones_like(objects.calibrated))
    return objects, failures


def render_svg(image_id: str, objects: detect.Columns, image_size: tuple[int, int]) -> str:
    """SVG overlay: one rect + one label per object, image pixel coordinates."""
    w, h = image_size
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        # a comment may not contain "--", so each "-" of the id becomes a character reference
        f"  <!-- {escape(image_id, quote=False).replace('-', '&#45;')} -->",
    ]
    rows = zip(objects.class_names, objects.boxes.tolist(), objects.distances.tolist())
    for name, (x0, y0, x1, y1), dist in rows:
        label = f"{name} {dist:.2f} m"
        lines.append(
            f'  <rect x="{x0:g}" y="{y0:g}" width="{x1 - x0:g}" '
            f'height="{y1 - y0:g}" fill="none" stroke="lime" stroke-width="2"/>'
        )
        lines.append(
            f'  <text x="{x0:g}" y="{max(y0 - 4, 10):g}" fill="lime" '
            f'font-family="monospace" font-size="14">{escape(label, quote=False)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_calibrate(args) -> int:
    samples = calib.read_samples_csv(Path(args.samples).read_bytes())
    model = calib.fit_quadratic(samples, h=args.camera_height)
    Path(args.out).write_bytes(calib.serialize_model(model))
    print(
        f"fitted c0={model.c0:.6g} c1={model.c1:.6g} c2={model.c2:.6g} "
        f"(h={model.h:g} m, rmse={model.fit_rmse:.6g} m, n={model.n_samples})"
    )
    return EXIT_OK


def _cmd_predict(args) -> int:
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not config_path:
        print(
            f"predict: no config given and {CONFIG_ENV_VAR} is unset", file=sys.stderr
        )
        return EXIT_USAGE
    overrides = {
        "min_conf": args.min_conf,
        "iou_threshold": args.iou_threshold,
        # relative to the working directory, unlike the config's own paths
        "calibration_model_path": args.calibration and Path(args.calibration).resolve(),
    }
    cfg = load_config(Path(config_path), overrides)
    objects, failures = predict_image(cfg, args.image_id)
    negative = objects.calibrated & (objects.distances < 0)
    for i in np.flatnonzero(negative).tolist():
        print(
            f"warning: negative calibrated distance {objects.distances[i]:.3f} m for "
            f"{objects.class_names[i]} (rev {objects.rev[i]:.3f} m)",
            file=sys.stderr,
        )
    for f in failures:
        print(f"warning: skipped {f.detection.class_name}: {f.reason}", file=sys.stderr)
    Path(args.out).write_bytes(roi.encode_distances(args.image_id, objects, failures))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    report = evaluate.evaluate_files(
        [Path(p).read_bytes() for p in args.pred],
        [Path(g).read_bytes() for g in args.gt],
        args.threshold,
    )
    Path(args.out).write_bytes(evaluate.serialize_report(report))
    print(evaluate.render_table(report), end="")
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = synth.parse_scene(Path(args.scene).read_bytes())
    disp_map, dets, gts = synth.render_scene(spec)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    image_id = prefix.name
    dets = replace(dets, image_id=image_id)
    Path(f"{prefix}.pfm").write_bytes(maps.write_pfm(disp_map))
    Path(f"{prefix}.det.json").write_bytes(detect.serialize_detections(dets))
    Path(f"{prefix}.gt.json").write_bytes(evaluate.serialize_ground_truth(image_id, gts))
    return EXIT_OK


def _cmd_annotate(args) -> int:
    try:
        w, h = (int(v) for v in args.image_size.lower().split("x"))
        if w <= 0 or h <= 0:
            raise ValueError
    except ValueError:
        print(f"annotate: bad --image-size {args.image_size!r}, expected WxH", file=sys.stderr)
        return EXIT_USAGE
    image_id, objects = roi.decode_distances(Path(args.distances).read_bytes())
    Path(args.out).write_text(render_svg(image_id, objects, (w, h)))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="monodist",
        description="Fuse monocular depth maps with object detections into per-object distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit the quadratic REV->ABS model from samples")
    p.add_argument("--samples", required=True, help="CSV with header x_m,y_abs_m")
    p.add_argument("--camera-height", type=float, required=True, metavar="M")
    p.add_argument("--out", required=True, help="output .calib.json path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("predict", help="run the fusion pipeline for one image")
    p.add_argument("--config", help=f"pipeline config JSON (default: ${CONFIG_ENV_VAR})")
    p.add_argument("--image-id", required=True)
    p.add_argument("--out", required=True, help="output .dist.json path")
    p.add_argument("--min-conf", type=float, help="override config min_conf")
    p.add_argument("--iou-threshold", type=float, help="override config iou_threshold")
    p.add_argument("--calibration", help="override config calibration model path")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--pred", nargs="+", required=True, help=".dist.json files")
    p.add_argument("--gt", nargs="+", required=True, help=".gt.json files")
    p.add_argument(
        "--threshold",
        type=float,
        default=evaluate.DEFAULT_ACCURACY_THRESHOLD_M,
        metavar="M",
    )
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth", help="render a synthetic scene to pipeline inputs")
    p.add_argument("--scene", required=True, help=".scene.json path")
    p.add_argument(
        "--out-prefix", required=True, help="writes <prefix>.pfm, .det.json, .gt.json"
    )
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("annotate", help="emit an SVG overlay of measured objects")
    p.add_argument("--distances", required=True, help=".dist.json path")
    p.add_argument("--image-size", required=True, metavar="WxH")
    p.add_argument("--out", required=True, help="output .svg path")
    p.set_defaults(func=_cmd_annotate)
    return parser


def dispatch(argv: list[str]) -> int:
    """Run one subcommand. Exit 0 on success, 1 on usage error, 2 on data or memory error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (MonodistError, OSError, MemoryError) as e:
        print(f"monodist {args.command}: {e}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
