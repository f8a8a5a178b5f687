"""Malformed input files end in a DataError: exit 2 from the CLI, never a traceback."""
import copy
import functools
import json
import math
import operator
import subprocess
import sys

import pytest
from conftest import checkout_env
from hypothesis import given
from hypothesis import strategies as st

from monodist import calib, cli, detect, evaluate, maps, roi, synth
from monodist.detect import BoundingBox, Detection
from monodist.errors import (
    CalibrationError,
    DataError,
    DetectionFormatError,
    PfmFormatError,
    SceneError,
)

NOT_UTF8 = b"\xff\xfe\x00x_m,y_abs_m\n1,2\n"
SCENE = b'{"map_width": 8, "map_height": 8, "background_depth_m": 50, %s}'


def run_cli(argv, cwd):
    return subprocess.run(
        [sys.executable, "-m", "monodist.cli", *argv],
        cwd=cwd,
        env=checkout_env(),
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
        (synth_argv, SCENE % b'"noise_amplitude": 0.1, "seed": -1'),
        (synth_argv, SCENE % b'"noise_amplitude": 1e308'),
    ],
    ids=[
        "gt_object_not_a_dict", "gt_not_utf8", "config_is_a_list", "scene_is_a_list",
        "csv_not_utf8", "scene_negative_seed", "scene_huge_noise",
    ],
)
def test_malformed_file_exits_2_without_traceback(tmp_path, make_argv, payload):
    proc = run_cli(make_argv(tmp_path, payload), tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("monodist ")


# each parser and the one DataError subclass it may raise
PARSERS = {
    "detections": (detect.parse_detections, DetectionFormatError),
    "ground_truth": (evaluate.parse_ground_truth, DetectionFormatError),
    "scene": (synth.parse_scene, SceneError),
    "distances": (roi.parse_distances, DetectionFormatError),
    "calibration_model": (calib.deserialize_model, CalibrationError),
    "samples_csv": (calib.read_samples_csv, CalibrationError),
    "pfm": (maps.read_pfm, PfmFormatError),
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
    parse, error = PARSERS[name]
    try:
        parse(payload)
    except error:
        pass


# one valid document per bbox-carrying format, with the box left as a placeholder
BBOX_DOCS = {
    "detections": '{"image": "a", "width": 9, "height": 9, "detections": '
    '[{"class_id": 0, "class_name": "car", "confidence": 0.5, "bbox": %s}]}',
    "ground_truth": '{"image": "a", "objects": [{"class_name": "car", "abs_m": 5, "bbox": %s}]}',
    "scene": '{"map_width": 9, "map_height": 9, "background_depth_m": 50, '
    '"objects": [{"class_name": "car", "depth_m": 5, "bbox": %s}]}',
    "distances": '{"image": "a", "objects": [{"class_name": "car", "confidence": 0.5, '
    '"bbox": %s, "rev_m": 5, "abs_m": null}]}',
}


@pytest.mark.parametrize("name", sorted(BBOX_DOCS))
def test_bbox_must_be_a_list_of_four(name):
    parse, error = PARSERS[name]
    assert parse(BBOX_DOCS[name] % "[1, 2, 3, 4]")
    for bad in ('"1234"', "[1, 2, 3]", "[1, 2, 3, 4, 5]", '{"x0": 1}', '["a", 2, 3, 4]'):
        with pytest.raises(error):
            parse(BBOX_DOCS[name] % bad)


@pytest.mark.parametrize(
    "name, payload",
    [
        ("scene", SCENE % b'"objects": [{"class_name": "c", "depth_m": 5, "bbox": [4, 0, 2, 2]}]'),
        ("scene", SCENE % b'"depth_range": {"min_m": 5, "max_m": 1}'),
        ("scene", SCENE % b'"noise_amplitude": NaN'),
        ("scene", SCENE % b'"seed": Infinity'),
        ("detections", b'{"image": "a", "width": Infinity, "height": 2, "detections": []}'),
        ("calibration_model", b'{"c0": 1, "c1": 0, "c2": 0, "h_m": 1, "fit_rmse_m": 0, '
                              b'"n_samples": -Infinity}'),
    ],
    ids=["inverted_bbox", "inverted_depth_range", "nan_noise", "infinite_seed",
         "infinite_width", "infinite_n_samples"],
)
def test_invalid_values_raise_the_parsers_own_error(name, payload):
    parse, error = PARSERS[name]
    with pytest.raises(error):
        parse(payload)


def test_bad_utf8_is_reported_as_bad_json():
    with pytest.raises(CalibrationError, match="malformed calibration JSON"):
        calib.deserialize_model(b"\xff")


@given(payloads)
def test_load_config_raises_only_data_errors(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzz.config.json"
    path.write_bytes(payload)
    try:
        cli.load_config(path, {"min_conf": None})
    except DataError:
        pass


MISSING = object()
# the new value of the one mutated field; MISSING deletes it
field_values = st.one_of(
    json_values,
    st.sampled_from([MISSING, math.nan, math.inf, -math.inf, 1e308, -1, 0, "", ".", "\x00"]),
)


def field_paths(node, path=()):
    """The key path of every object field and list item nested in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


def mutate_one_field(doc, data):
    """A valid document with one of its fields, at any depth, replaced or deleted."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    value = data.draw(field_values)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).encode()


MODEL_DOC = {"c0": 21.714, "c1": -0.5373, "c2": 0.0036, "h_m": 1.5, "fit_rmse_m": 0.2,
             "n_samples": 9}
# each parser with a valid document and the serialiser an accepted record must round-trip through
ROUND_TRIPS = {
    "scene": (synth.serialize_scene, {
        "map_width": 64, "map_height": 48, "background_depth_m": 50.0,
        "depth_range": {"min_m": 0.5, "max_m": 80.0},
        "objects": [
            {"class_name": "car", "depth_m": 10.0, "bbox": [5, 5, 30, 30]},
            {"class_name": "person", "depth_m": 20.5, "bbox": [32.5, 4, 60, 40]},
        ],
        "noise_amplitude": 0.1, "seed": 3,
    }),
    "calibration_model": (calib.serialize_model, MODEL_DOC),
}


@given(st.sampled_from(sorted(ROUND_TRIPS)), st.data())
def test_one_field_mutation_raises_only_the_parsers_error(name, data):
    (parse, error), (serialize, doc) = PARSERS[name], ROUND_TRIPS[name]
    try:
        record = parse(mutate_one_field(doc, data))
    except error:
        return
    assert parse(serialize(record)) == record


CONFIGS = {
    "files": {"mode": "files", "depth_dir": "frames", "det_dir": "frames", "depth_kind": "depth"},
    "process": {"mode": "process", "depth_command": "cat frames/{image_id}.pfm",
                "det_command": "cat frames/{image_id}.det.json"},
}


@given(st.sampled_from(sorted(CONFIGS)), st.data())
def test_load_config_one_field_mutation_raises_only_data_errors(tmp_path_factory, mode, data):
    base = tmp_path_factory.getbasetemp() / "mutated"
    (base / "frames").mkdir(parents=True, exist_ok=True)
    (base / "m.calib.json").write_text(json.dumps(MODEL_DOC))
    doc = {
        "backend": CONFIGS[mode], "depth_range": {"min_m": 0.5, "max_m": 80.0},
        "min_conf": 0.25, "iou_threshold": 0.45, "calibration_model_path": "m.calib.json",
    }
    path = base / "c.json"
    path.write_bytes(mutate_one_field(doc, data))
    try:
        cfg = cli.load_config(path)
    except DataError:
        return
    backend = cfg.backend
    for source in (backend.depth, backend.det):
        if backend.mode is cli.BackendMode.FILES:
            assert source.is_dir()
        else:
            assert isinstance(source, str) and source
