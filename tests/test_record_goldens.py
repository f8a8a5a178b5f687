"""Byte-level goldens for every JSON record format.

Each serialiser's output is pinned byte for byte: key order, 2-space
indent, shortest float repr, ASCII escapes and the trailing newline. Each
format that has a parser must also read its golden back into records that
serialise to the same bytes.
"""
from dataclasses import replace

from monodist.calib import CalibrationModel, deserialize_model, serialize_model
from monodist.detect import (
    BoundingBox,
    Detection,
    DetectionSet,
    parse_detections,
    serialize_detections,
)
from monodist.evaluate import (
    GroundTruthObject,
    MatchedPair,
    build_report,
    parse_ground_truth,
    serialize_ground_truth,
    serialize_report,
)
from monodist.maps import DepthRange
from monodist.roi import ObjectDistance, RoiFailure, parse_distances, serialize_distances
from monodist.synth import SceneObject, SceneSpec, parse_scene, serialize_scene

CAR = Detection(2, "car", 0.875, BoundingBox(10, 20.5, 110, 80))
PED = Detection(0, "pedestriané", 0.1 + 0.2, BoundingBox(0, 0, 3, 7.25))

DETECTIONS = r"""{
  "image": "img0",
  "width": 640,
  "height": 480,
  "detections": [
    {
      "class_id": 2,
      "class_name": "car",
      "confidence": 0.875,
      "bbox": [
        10.0,
        20.5,
        110.0,
        80.0
      ]
    },
    {
      "class_id": 0,
      "class_name": "pedestrian\u00e9",
      "confidence": 0.30000000000000004,
      "bbox": [
        0.0,
        0.0,
        3.0,
        7.25
      ]
    }
  ]
}
"""

MODEL = """{
  "c0": 21.714,
  "c1": -0.5373,
  "c2": 0.0036,
  "h_m": 1.5,
  "fit_rmse_m": 0.125,
  "n_samples": 9
}
"""

DISTANCES = r"""{
  "image": "img0",
  "objects": [
    {
      "class_name": "car",
      "confidence": 0.875,
      "bbox": [
        10.0,
        20.5,
        110.0,
        80.0
      ],
      "rev_m": 12.5,
      "abs_m": 11.0
    },
    {
      "class_name": "pedestrian\u00e9",
      "confidence": 0.30000000000000004,
      "bbox": [
        0.0,
        0.0,
        3.0,
        7.25
      ],
      "rev_m": 0.3333333333333333,
      "abs_m": null
    }
  ],
  "failures": [
    {
      "class_name": "pedestrian\u00e9",
      "bbox": [
        0.0,
        0.0,
        3.0,
        7.25
      ],
      "reason": "no positive depth in rect"
    }
  ]
}
"""

GROUND_TRUTH = r"""{
  "image": "img0",
  "objects": [
    {
      "class_name": "car",
      "abs_m": 12.0,
      "bbox": [
        10.0,
        20.5,
        110.0,
        80.0
      ]
    },
    {
      "class_name": "pedestrian\u00e9",
      "abs_m": 0.30000000000000004
    }
  ]
}
"""

REPORT = """{
  "rmse_m": 0.7079901129253148,
  "accuracy": 0.5,
  "threshold_m": 0.2,
  "unmatched_predictions": 1,
  "unmatched_truths": 2,
  "pairs": [
    {
      "class_name": "car",
      "truth_m": 12.0,
      "predicted_m": 11.0,
      "error_m": 1.0
    },
    {
      "class_name": "person",
      "truth_m": 3.3,
      "predicted_m": 3.25,
      "error_m": 0.04999999999999982
    }
  ]
}
"""

SCENE = """{
  "map_width": 64,
  "map_height": 48,
  "background_depth_m": 90.0,
  "depth_range": {
    "min_m": 0.5,
    "max_m": 95.0
  },
  "objects": [
    {
      "class_name": "car",
      "depth_m": 12.5,
      "bbox": [
        5.0,
        6.0,
        20.0,
        21.5
      ]
    }
  ],
  "noise_amplitude": 0.01,
  "seed": 3
}
"""


def test_detections_golden():
    data = serialize_detections(DetectionSet("img0", 640, 480, (CAR, PED)))
    assert data == DETECTIONS.encode()
    assert serialize_detections(parse_detections(data)) == data


def test_model_golden():
    model = CalibrationModel(21.714, -0.5373, 0.0036, 1.5, fit_rmse=0.125, n_samples=9)
    data = serialize_model(model)
    assert data == MODEL.encode()
    assert serialize_model(deserialize_model(data)) == data


def test_distances_with_failures_golden():
    objects = [ObjectDistance(CAR, rev=12.5, abs=11.0), ObjectDistance(PED, rev=1 / 3)]
    data = serialize_distances("img0", objects, [RoiFailure(PED, "no positive depth in rect")])
    assert data == DISTANCES.encode()
    # class ids are not stored, and failures are reported, not read back
    expected = [replace(od, detection=replace(od.detection, class_id=0)) for od in objects]
    assert parse_distances(data) == ("img0", expected)


def test_ground_truth_golden():
    gts = [
        GroundTruthObject("car", 12, BoundingBox(10, 20.5, 110, 80)),
        GroundTruthObject("pedestriané", 0.1 + 0.2),
    ]
    data = serialize_ground_truth("img0", gts)
    assert data == GROUND_TRUTH.encode()
    assert parse_ground_truth(data) == ("img0", gts)
    assert serialize_ground_truth(*parse_ground_truth(data)) == data


def test_report_golden():
    pairs = [MatchedPair("car", 11.0, 12.0), MatchedPair("person", 3.25, 3.3)]
    report = build_report(pairs, 1, 2, 0.2)
    assert serialize_report(report) == REPORT.encode()


def test_scene_golden():
    spec = SceneSpec(
        64, 48, 90, (SceneObject("car", 12.5, BoundingBox(5, 6, 20, 21.5)),),
        DepthRange(0.5, 95), noise_amplitude=0.01, seed=3,
    )
    data = serialize_scene(spec)
    assert data == SCENE.encode()
    assert parse_scene(data) == spec
    assert serialize_scene(parse_scene(data)) == data
