"""Malformed input files end in a DataError: exit 2 from the CLI, never a traceback."""
import contextlib
import copy
import functools
import io
import json
import math
import operator
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import checkout_env
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from test_columns import mutate

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
# deeper than Python's recursion limit, so that json.loads raises RecursionError
NESTED = b"[" * 100000
# one field longer than the csv module's limit of 131072 characters
LONG_FIELD = b"1" * 131073
# map sizes numpy refuses before touching memory: too many bytes, and too long a dimension
HUGE_MAP = b'{"map_width": 10000000000, "map_height": 10000000000, "background_depth_m": 50}'
LONG_MAP = b'{"map_width": 9223372036854775808, "map_height": 1, "background_depth_m": 50}'
FAR_TRUTH = b'{"image": "img0", "objects": [{"class_name": "car", "abs_m": 1e308}]}'


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


def far_evaluate_argv(tmp_path, gt_bytes):
    """`evaluate_argv` with the prediction calibrated to -1e308 m."""
    argv = evaluate_argv(tmp_path, gt_bytes)
    od = roi.ObjectDistance(Detection(0, "car", 0.9, BoundingBox(0, 0, 10, 10)), 5.0, -1e308)
    (tmp_path / "p.json").write_bytes(roi.serialize_distances("img0", [od]))
    return argv


def predict_argv(tmp_path, config_bytes):
    (tmp_path / "c.json").write_bytes(config_bytes)
    return ["predict", "--config", "c.json", "--image-id", "img0", "--out", "o.json"]


def detections_argv(tmp_path, det_bytes):
    (tmp_path / "img0.det.json").write_bytes(det_bytes)
    config = {"backend": {"mode": "files", "depth_dir": ".", "det_dir": "."}}
    return predict_argv(tmp_path, json.dumps(config).encode())


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
        (detections_argv, NESTED),
        (predict_argv, NESTED),
        (calibrate_argv, b"x_m,y_abs_m\n1," + LONG_FIELD + b"\n"),
        (synth_argv, HUGE_MAP),
        (synth_argv, LONG_MAP),
        (evaluate_argv, b'{"image": "img0", "objects": [{"class_name": "car", "abs_m": 1e308}]}'),
        # -1e308 against 1e308: the pair's error is infinite, so its square raises nothing
        (far_evaluate_argv, FAR_TRUTH),
    ],
    ids=[
        "gt_object_not_a_dict", "gt_not_utf8", "config_is_a_list", "scene_is_a_list",
        "csv_not_utf8", "scene_negative_seed", "scene_huge_noise", "detections_nested_too_deep",
        "config_nested_too_deep", "csv_field_too_long", "scene_map_too_many_bytes",
        "scene_map_too_wide", "rmse_past_float64", "pair_error_infinite",
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
        *((name, NESTED) for name in
          ("detections", "ground_truth", "scene", "distances", "calibration_model")),
        ("samples_csv", b"x_m," + LONG_FIELD + b"\n1,2\n"),
        ("samples_csv", b"x_m,y_abs_m\n1," + LONG_FIELD + b"\n"),
        ("samples_csv", b"x_m,y_abs_m\n-1,2\n"),
        ("samples_csv", b"x_m,y_abs_m\ninf,2\n"),
        ("samples_csv", b"x_m,y_abs_m\n1,0\n"),
        ("calibration_model", b'{"c0": 1, "c1": 0, "c2": 0, "h_m": 1, "fit_rmse_m": -1, '
                              b'"n_samples": 3}'),
        ("calibration_model", b'{"c0": 1, "c1": 0, "c2": 0, "h_m": 1, "fit_rmse_m": 0, '
                              b'"n_samples": 1}'),
        ("scene", b'{"map_width": 0, "map_height": 8, "background_depth_m": 50}'),
    ],
    ids=["inverted_bbox", "inverted_depth_range", "nan_noise", "infinite_seed",
         "infinite_width", "infinite_n_samples", "detections_nested_too_deep",
         "ground_truth_nested_too_deep", "scene_nested_too_deep", "distances_nested_too_deep",
         "calibration_model_nested_too_deep", "csv_header_field_too_long",
         "csv_row_field_too_long", "sample_x_negative", "sample_x_infinite", "sample_y_abs_zero",
         "model_negative_fit_rmse", "model_one_sample", "scene_zero_map_width"],
)
def test_invalid_values_raise_the_parsers_own_error(name, payload):
    parse, error = PARSERS[name]
    with pytest.raises(error):
        parse(payload)


HUGE = 10**5000  # past float64 and past sys.get_int_max_str_digits()
BOX = BoundingBox(0, 0, 1, 1)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: detect.DetectionSet("x", -HUGE, 1, []), DataError,
         "image dimensions must be positive, got -1.00e+5000x1"),
        (lambda: maps.ScalarMap(-HUGE, 1, maps.MapKind.DEPTH, [1.0]), DataError,
         "map dimensions must be positive, got -1.00e+5000x1"),
        (lambda: maps.ScalarMap(HUGE, 1, maps.MapKind.DEPTH, [1.0]), DataError,
         "a 1.00e+5000x1 map needs 1.00e+5000 values, got 1"),
        (lambda: roi.IndexRect(-HUGE, 0, 1, 1), DataError,
         "negative rect index in IndexRect(col0=-1.00e+5000, row0=0, col1=1, row1=1)"),
        (lambda: Detection(-HUGE, "car", 0.5, BOX), DataError, "negative class_id -1.00e+5000"),
        (lambda: synth.SceneSpec(-HUGE, 1, 50.0), SceneError,
         "map dimensions must be positive, got -1.00e+5000x1"),
        (lambda: calib.CalibrationModel(1, 1, 1, 1.0, 0.0, -HUGE), CalibrationError,
         "fitted model needs >= 3 samples, got -1.00e+5000"),
        # past float64, a value is the infinity of its sign, as the float literal 1e999 is
        (lambda: BoundingBox(HUGE, 0, 1, 1), DataError,
         "non-finite, negative, inverted or empty bbox [inf, 0.0, 1.0, 1.0]"),
        (lambda: maps.DepthRange(HUGE, 1), DataError,
         "depth range must satisfy 0 < min < max < inf, 1/min and 1/(1/max) finite, "
         "1/max < 1/min, got (inf, 1.0)"),
        (lambda: calib.CalibrationModel(HUGE, 1, 1, 1.0), CalibrationError,
         "c0 must be finite, got inf"),
        (lambda: Detection(0, "car", HUGE, BOX), DataError, "confidence inf outside [0, 1]"),
        (lambda: roi.ObjectDistance(Detection(0, "car", 0.5, BOX), 1.0, -HUGE), DataError,
         "abs must be finite, got -inf"),
        (lambda: evaluate.GroundTruthObject("car", HUGE), DataError,
         "ground-truth distance must be positive, got inf"),
        (lambda: synth.SceneSpec(4, 4, 50.0, seed=-HUGE), SceneError,
         "seed must be a non-negative integer, got -1.00e+5000"),
        (lambda: calib.CalibrationSample(HUGE, 1.0), CalibrationError,
         "sample x must be non-negative finite, got 1.00e+5000"),
        (lambda: evaluate.build_report([evaluate.MatchedPair("car", HUGE, 1.0)], 0, 0),
         DataError, "rmse overflows float64; distances too large"),
        (lambda: evaluate.threshold_accuracy([evaluate.MatchedPair("car", 2.0, 1.0)], HUGE),
         DataError, "threshold must be a positive finite distance, got inf"),
        (lambda: calib.fit_quadratic(
            [calib.CalibrationSample(x, y) for x, y in ((1, 2), (2, 3), (3, 5))], h=HUGE),
         CalibrationError, "camera height must be positive finite, got inf"),
        # a container whose repr needs an int too long for str is shown by its type
        (lambda: BoundingBox([HUGE], 0, 1, 1), DataError,
         "bbox coordinate must be a number, got a list"),
    ],
    ids=["DetectionSet", "ScalarMap", "ScalarMap.size", "IndexRect", "Detection.class_id",
         "SceneSpec", "CalibrationModel.n_samples", "BoundingBox", "DepthRange",
         "CalibrationModel.c0", "Detection.confidence", "ObjectDistance", "GroundTruthObject",
         "SceneSpec.seed", "CalibrationSample", "build_report", "threshold_accuracy",
         "fit_quadratic", "BoundingBox.list"],
)
def test_a_huge_int_argument_raises_the_records_own_error(build, error, message):
    """A record built in Python from an int of any size raises its DataError, with its text."""
    with pytest.raises(DataError) as e:
        build()
    assert type(e.value) is error and str(e.value) == message


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


def test_load_config_reports_an_unreadable_file_as_a_data_error(tmp_path):
    with pytest.raises(DataError, match=f"^cannot read {re.escape(str(tmp_path))}: Is a directory$"):
        cli.load_config(tmp_path)
    (tmp_path / "m.calib.json").mkdir()
    doc = {"backend": CONFIGS["process"], "calibration_model_path": "m.calib.json"}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    with pytest.raises(DataError, match="^cannot read .*m.calib.json: Is a directory$"):
        cli.load_config(tmp_path / "c.json")


def test_load_config_rejects_a_depth_dir_that_is_a_file(tmp_path):
    doc = {"backend": {**CONFIGS["files"], "depth_dir": "c.json"}}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    with pytest.raises(DataError, match="^depth_dir .*c.json is not a directory$"):
        cli.load_config(tmp_path / "c.json")


DET_DOC = {"image": "img0", "width": 32, "height": 24, "detections": [
    {"class_id": 0, "class_name": "car", "confidence": 0.9, "bbox": [2, 2, 12, 10]},
    {"class_id": 0, "class_name": "car", "confidence": 0.8, "bbox": [3, 2, 12, 11]},
    {"class_id": 1, "class_name": "person", "confidence": 0.5, "bbox": [14, 4, 20, 20]},
]}
DIST_DOC = {"image": "img0", "objects": [
    {"class_name": "car", "confidence": 0.9, "bbox": [2, 2, 12, 10], "rev_m": 5.0, "abs_m": 5.5},
    {"class_name": "person", "confidence": 0.5, "bbox": [14, 4, 20, 20], "rev_m": 7.0,
     "abs_m": None},
]}
GT_DOC = {"image": "img0", "objects": [
    {"class_name": "car", "abs_m": 5.2, "bbox": [2, 2, 12, 10]},
    {"class_name": "person", "abs_m": 7.5},
]}
PREDICT_CONFIG = {
    "backend": {"mode": "files", "depth_dir": ".", "det_dir": ".", "depth_kind": "disparity"},
    "depth_range": {"min_m": 0.5, "max_m": 80.0}, "min_conf": 0.25, "iou_threshold": 0.45,
    "calibration_model_path": "m.calib.json",
}
SAMPLES = [["x_m", "y_abs_m"], [1, 2.5], [2, 3.1], [4, 5.0], [8, 9.5]]
PFM = maps.write_pfm(maps.ScalarMap(16, 12, maps.MapKind.DISPARITY, np.linspace(0, 1, 192)))
# each subcommand's arguments and the valid input files they name; "out" is the output
COMMANDS = {
    "calibrate": (["--samples", "s.csv", "--camera-height", "1.5", "--out", "out"],
                  {"s.csv": SAMPLES}),
    "predict": (["--config", "c.json", "--image-id", "img0", "--out", "out"],
                {"c.json": PREDICT_CONFIG, "img0.det.json": DET_DOC, "m.calib.json": MODEL_DOC}),
    "evaluate": (["--pred", "p.json", "--gt", "g.json", "--out", "out"],
                 {"p.json": DIST_DOC, "g.json": GT_DOC}),
    "synth": (["--scene", "s.json", "--out-prefix", "out"], {"s.json": ROUND_TRIPS["scene"][1]}),
    "annotate": (["--distances", "p.json", "--image-size", "32x24", "--out", "out"],
                 {"p.json": DIST_DOC}),
}


def csv_bytes(rows):
    return "".join(
        (",".join(map(str, row)) if isinstance(row, list) else str(row)) + "\n" for row in rows
    ).encode()


@st.composite
def cli_inputs(draw):
    """A subcommand, and the name and bytes of one of its input files with one field mutated."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    files = COMMANDS[command][1]
    name = draw(st.sampled_from(sorted(files)))
    doc, data = files[name], SimpleNamespace(draw=draw)
    if name == "s.csv":
        return command, name, csv_bytes(json.loads(mutate_one_field(doc, data)))
    items = doc.get("detections", doc.get("objects"))
    if items and draw(st.booleans()):
        return command, name, mutate(copy.deepcopy(doc), data, sorted(items[0]))
    return command, name, mutate_one_field(doc, data)


def fills_a_large_map(scene: bytes) -> bool:
    """Whether `synth` would write every page of a map that numpy can allocate, past 1 MiB."""
    try:
        doc = json.loads(scene)
        cells = int(doc["map_width"]) * int(doc["map_height"])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
        return False
    return 2**17 < cells < 2**60  # from 2**60 cells on, numpy refuses before allocating


def strict_json(data: bytes):
    """JSON that holds no NaN or Infinity, which `json.dumps` writes and the JSON standard lacks."""
    def reject_constant(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(data, parse_constant=reject_constant)


def assert_exit_code_contract(command, inputs):
    """Run `command` in process on `inputs` (file name -> bytes), and check the exit-code contract.

    The exit code is 0, 1 or 2 and nothing is raised out of `dispatch` (a
    RuntimeWarning is raised as an error). After exit 2 the last line of
    stderr names the subcommand and no output is written; after exit 0
    every JSON output is strict JSON.
    """
    args, _ = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, data in inputs.items():
            (d / name).write_bytes(data)
        argv = [command, *(str(d / a) if a in inputs or a == "out" else a for a in args)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.dispatch(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert stderr.getvalue().splitlines()[-1].startswith(f"monodist {command}: ")
            assert not list(d.glob("out*"))
        elif command != "annotate":  # annotate writes SVG
            for out in d.glob("out*"):
                if out.suffix != ".pfm":
                    strict_json(out.read_bytes())


@settings(max_examples=100, deadline=None)
@given(cli_inputs())
@example(("predict", "img0.det.json", NESTED))
@example(("calibrate", "s.csv", b"x_m,y_abs_m\n1," + LONG_FIELD + b"\n"))
@example(("synth", "s.json", HUGE_MAP))
@example(("evaluate", "p.json", json.dumps({"image": "img0", "objects": [
    {**DIST_DOC["objects"][0], "bbox": [0, 0, 1e200, 1e200]}]}).encode()))
# each error squares below float64's maximum, but their sum does not
@example(("evaluate", "p.json", json.dumps({"image": "img0", "objects": [
    {**o, "abs_m": 1e154} for o in DIST_DOC["objects"]]}).encode()))
def test_every_subcommand_keeps_the_exit_code_contract(inputs):
    command, name, payload = inputs
    if command == "synth" and fills_a_large_map(payload):
        reject()
    files = {
        other: csv_bytes(doc) if other == "s.csv" else json.dumps(doc).encode()
        for other, doc in COMMANDS[command][1].items()
    }
    assert_exit_code_contract(command, {"img0.pfm": PFM, **files, name: payload})


# each option and the subcommand that takes it; its value is set in, or added to, that argv
OPTIONS = {"--camera-height": "calibrate", "--min-conf": "predict", "--iou-threshold": "predict",
           "--threshold": "evaluate", "--image-size": "annotate", "--image-id": "predict"}
OPTION_VALUES = ["nan", "-0", "inf", "1e999", "1" + "0" * 4999, "", "0x5", "5x", "x", "1x1x1"]


@pytest.mark.parametrize("value", OPTION_VALUES, ids=[
    "nan", "-0", "inf", "1e999", "5000_digits", "empty", "0x5", "5x", "x", "1x1x1"])
@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_every_option_value_keeps_the_exit_code_contract(monkeypatch, option, value):
    command = OPTIONS[option]
    args, docs = COMMANDS[command]
    args = list(args)
    if option in args:
        args[args.index(option) + 1] = value
    else:
        args += [option, value]
    monkeypatch.setitem(COMMANDS, command, (args, docs))
    files = {
        name: csv_bytes(doc) if name == "s.csv" else json.dumps(doc).encode()
        for name, doc in docs.items()
    }
    assert_exit_code_contract(command, {"img0.pfm": PFM, **files})


# each depth_kind with a valid 16x12 map of that kind; the metric one has a sensor hole
PFMS = {
    "disparity": PFM,
    "depth": maps.write_pfm(maps.ScalarMap(16, 12, maps.MapKind.DEPTH, np.linspace(0, 80, 192))),
}
# tokens drawn in place of the magic, the width, the height or the scale
PFM_TOKENS = st.sampled_from([
    b"Pf", b"PF", b"P5", b"", b"0", b"-1", b"1", b"12", b"16", b"192", b"1e3", b"1.0", b"-0.0",
    b"nan", b"inf", b"-inf", b"99999999999999999999", b"0x10", b"\xff",
]) | st.binary(max_size=4)
# float32 values drawn in place of one map value: the last is subnormal
PFM_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 1.5, 3e38, 1e-45])


@st.composite
def changed_pfms(draw):
    """A depth_kind and its PFM with one header token, the payload length or one value changed."""
    kind = draw(st.sampled_from(sorted(PFMS)))
    magic, dims, scale, payload = PFMS[kind].split(b"\n", 3)
    tokens = [magic, *dims.split(), scale]
    change = draw(st.sampled_from(["token", "length", "value"]))
    if change == "token":
        tokens[draw(st.integers(0, 3))] = draw(PFM_TOKENS)
    elif change == "length":
        k = draw(st.integers(1, 8))
        payload = payload[:-k] if draw(st.booleans()) else payload + bytes(k)
    else:
        values = np.frombuffer(payload, "<f4").copy()
        values[draw(st.integers(0, len(values) - 1))] = draw(PFM_VALUES)
        payload = values.tobytes()
    return kind, b"%s\n%s %s\n%s\n" % tuple(tokens) + payload


@settings(max_examples=100, deadline=None)
@given(changed_pfms())
# a big-endian read of a little-endian payload, whose bytes hold a signalling NaN
@example(("depth", PFMS["depth"].replace(b"\n-1.0\n", b"\n1\n", 1)))
def test_predict_keeps_the_exit_code_contract_on_a_changed_pfm(changed):
    kind, pfm = changed
    files = {name: json.dumps(doc).encode() for name, doc in COMMANDS["predict"][1].items()}
    config = {**PREDICT_CONFIG, "backend": {**PREDICT_CONFIG["backend"], "depth_kind": kind}}
    assert_exit_code_contract("predict", {**files, "c.json": json.dumps(config).encode(),
                                          "img0.pfm": pfm})


def pfm_with_header(grid, big_endian, length):
    """A PFM of a top-first grid whose header is `length` bytes long: the scale is padded."""
    head = b"Pf\n%d %d\n" % (grid.shape[1], grid.shape[0])
    scale = b"1." if big_endian else b"-1."
    scale += b"0" * (length - len(head) - len(scale) - 1) + b"\n"
    return head + scale + grid[::-1].astype(">f4" if big_endian else "<f4").tobytes()


@st.composite
def pfm_streams(draw):
    """A depth_kind and a PFM: one changed as above, or a valid one of 17 to 20 header bytes."""
    if draw(st.booleans()):
        return draw(changed_pfms())
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    grid = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((h, w))
    pfm = pfm_with_header(grid, draw(st.booleans()), draw(st.integers(17, 20)))
    return draw(st.sampled_from(sorted(PFMS))), pfm


def decode_pfm(data, kind):
    """The map `read_pfm` decodes from `data`, or the message of its PfmFormatError."""
    try:
        return maps.read_pfm(data, maps.MapKind(kind))
    except PfmFormatError as e:
        return str(e)


@settings(max_examples=200, deadline=None)
@given(pfm_streams())
# each header length, so each offset of the payload from the buffer's start
@example(("depth", pfm_with_header(np.ones((1, 1)), False, 17)))
@example(("depth", pfm_with_header(np.ones((1, 1)), True, 18)))
@example(("disparity", pfm_with_header(np.zeros((3, 2)), False, 19)))
@example(("disparity", pfm_with_header(np.zeros((3, 2)), True, 20)))
def test_every_buffer_type_decodes_a_pfm_alike(tmp_path_factory, drawn):
    kind, pfm = drawn
    frames = tmp_path_factory.getbasetemp() / "buffers"
    frames.mkdir(exist_ok=True)
    (frames / "img0.pfm").write_bytes(pfm)
    backend = cli.BackendConfig(cli.BackendMode.FILES, frames, frames)
    end_aligned = backend.fetch_depth_bytes("img0")
    first, *others = (
        decode_pfm(data, kind) for data in (pfm, bytearray(pfm), memoryview(pfm), end_aligned)
    )
    if isinstance(first, str):
        assert others == [first] * 3
        return
    for m in others:
        assert (m.width, m.height, m.kind) == (first.width, first.height, first.kind)
        assert m.values.dtype == first.values.dtype
        assert m.values.tobytes() == first.values.tobytes()
    assert others[-1].values.flags.aligned
