"""Malformed input files end in a DataError: exit 2 from the CLI, never a traceback."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import monodist
from monodist import calib, cli, detect, evaluate, maps, roi, synth
from monodist.detect import BoundingBox, Detection
from monodist.errors import DataError

NOT_UTF8 = b"\xff\xfe\x00x_m,y_abs_m\n1,2\n"


def run_cli(argv, cwd):
    src = str(Path(monodist.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "monodist.cli", *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def evaluate_argv(tmp_path, gt_bytes):
    od = roi.ObjectDistance(Detection(0, "car", 0.9, BoundingBox(0, 0, 10, 10)), rev=5.0)
    (tmp_path / "p.json").write_bytes(roi.serialize_distances("img0", [od]))
    (tmp_path / "gt.json").write_bytes(gt_bytes)
    return ["evaluate", "--pred", "p.json", "--gt", "gt.json", "--out", "r.json"]


def predict_argv(tmp_path, config_bytes):
    (tmp_path / "c.json").write_bytes(config_bytes)
    return ["predict", "--config", "c.json", "--image-id", "img0", "--out", "o.json"]


def synth_argv(tmp_path, scene_bytes):
    (tmp_path / "s.json").write_bytes(scene_bytes)
    return ["synth", "--scene", "s.json", "--out-prefix", "out/img0"]


def calibrate_argv(tmp_path, csv_bytes):
    (tmp_path / "s.csv").write_bytes(csv_bytes)
    return ["calibrate", "--samples", "s.csv", "--camera-height", "1.5", "--out", "m.json"]


@pytest.mark.parametrize(
    "make_argv, payload",
    [
        (evaluate_argv, b'{"image": "img0", "objects": ["x"]}'),
        (evaluate_argv, b'{"image": "img0", "objects": []}\xff'),
        (predict_argv, b'[{"backend": {"mode": "files"}}]'),
        (synth_argv, b'[{"map_width": 8}]'),
        (calibrate_argv, NOT_UTF8),
    ],
    ids=["gt_object_not_a_dict", "gt_not_utf8", "config_is_a_list", "scene_is_a_list", "csv_not_utf8"],
)
def test_malformed_file_exits_2_without_traceback(tmp_path, make_argv, payload):
    proc = run_cli(make_argv(tmp_path, payload), tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("monodist ")


PARSERS = {
    "detections": detect.parse_detections,
    "ground_truth": evaluate.parse_ground_truth,
    "scene": synth.parse_scene,
    "distances": roi.parse_distances,
    "calibration_model": calib.deserialize_model,
    "samples_csv": calib.read_samples_csv,
    "pfm": maps.read_pfm,
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# the field names the parsers read, so documents get past the top-level checks
FIELDS = st.sampled_from([
    "image", "width", "height", "detections", "objects", "class_id", "class_name",
    "confidence", "bbox", "abs_m", "rev_m", "map_width", "map_height",
    "background_depth_m", "depth_range", "min_m", "max_m", "depth_m", "seed",
    "noise_amplitude", "c0", "c1", "c2", "h_m", "fit_rmse_m", "n_samples", "backend",
    "mode", "depth_dir", "det_dir", "depth_kind", "min_conf", "iou_threshold",
])
documents = st.recursive(
    json_values,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(FIELDS, inner, max_size=6),
    max_leaves=12,
)
payloads = st.one_of(documents.map(lambda d: json.dumps(d).encode()), st.binary(max_size=24))


@given(st.sampled_from(sorted(PARSERS)), payloads)
def test_parsers_raise_only_data_errors(name, payload):
    try:
        PARSERS[name](payload)
    except DataError:
        pass


@given(payloads)
def test_load_config_raises_only_data_errors(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzz.config.json"
    path.write_bytes(payload)
    try:
        cli.load_config(path, {"min_conf": None})
    except DataError:
        pass
