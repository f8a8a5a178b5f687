"""Byte-level goldens for every JSON record format.

Each serialiser's output is pinned byte for byte: key order, 2-space
indent, shortest float repr, ASCII escapes and the trailing newline. Each
format that has a parser must also read its golden back into records that
serialise to the same bytes.
"""
from dataclasses import replace

from monodist import cli
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


# Three images: "b" is split across two --pred files, "person" GT has no boxes
# (matched in centre-x order), the bus prediction is uncalibrated (scored on
# REV), and each side has unmatched objects, including a class the other lacks.
def _od(cls, box, rev, abs=None):
    return ObjectDistance(Detection(0, cls, 0.9, BoundingBox(*box)), rev=rev, abs=abs)


EVAL_PREDS = {
    "a.dist.json": ("a", [
        _od("car", (10, 10, 50, 40), 12.0, 11.5),
        _od("car", (100, 10, 140, 40), 20.25),
        _od("person", (200, 50, 220, 100), 5.0, 5.1),
    ]),
    "b1.dist.json": ("b", [
        _od("person", (100, 10, 120, 60), 3.7, 3.9),
        _od("car", (50, 20, 90, 50), 15.0, 0.1 + 15.2),
    ]),
    "c.dist.json": ("c", [
        _od("bus", (0, 0, 100, 80), 30.2),
        _od("person", (5, 5, 15, 30), 6.0, 6.3),
    ]),
    "b2.dist.json": ("b", [
        _od("person", (10, 10, 30, 60), 7.0, 7.2),
        _od("truck", (0, 0, 10, 10), 9.0, 9.0),
    ]),
}
EVAL_TRUTHS = {
    "c.gt.json": ("c", [
        GroundTruthObject("bus", 30.0, BoundingBox(5, 0, 100, 80)),
        GroundTruthObject("car", 8.0, BoundingBox(0, 0, 10, 10)),
    ]),
    "a.gt.json": ("a", [
        GroundTruthObject("person", 5.0),
        GroundTruthObject("car", 30.0, BoundingBox(300, 10, 340, 40)),
        GroundTruthObject("car", 11.4, BoundingBox(12, 10, 52, 40)),
    ]),
    "b.gt.json": ("b", [
        GroundTruthObject("person", 7.0),
        GroundTruthObject("car", 15.0, BoundingBox(52, 20, 92, 50)),
        GroundTruthObject("person", 3.8),
    ]),
}

MULTI_IMAGE_REPORT = """{
  "rmse_m": 0.18257418583505491,
  "accuracy": 0.8333333333333334,
  "threshold_m": 0.25,
  "unmatched_predictions": 3,
  "unmatched_truths": 2,
  "pairs": [
    {
      "class_name": "car",
      "truth_m": 11.4,
      "predicted_m": 11.5,
      "error_m": 0.09999999999999964
    },
    {
      "class_name": "person",
      "truth_m": 5.0,
      "predicted_m": 5.1,
      "error_m": 0.09999999999999964
    },
    {
      "class_name": "car",
      "truth_m": 15.0,
      "predicted_m": 15.299999999999999,
      "error_m": 0.29999999999999893
    },
    {
      "class_name": "person",
      "truth_m": 7.0,
      "predicted_m": 7.2,
      "error_m": 0.20000000000000018
    },
    {
      "class_name": "person",
      "truth_m": 3.8,
      "predicted_m": 3.9,
      "error_m": 0.10000000000000009
    },
    {
      "class_name": "bus",
      "truth_m": 30.0,
      "predicted_m": 30.2,
      "error_m": 0.1999999999999993
    }
  ]
}
"""

MULTI_IMAGE_TABLE = """\
Object  Absolute distance (m)  Predicted distance (m)  Error (m)
------  ---------------------  ----------------------  ---------
car     11.40                  11.50                   0.10
person  5.00                   5.10                    0.10
car     15.00                  15.30                   0.30
person  7.00                   7.20                    0.20
person  3.80                   3.90                    0.10
bus     30.00                  30.20                   0.20

RMSE: 0.1826 m   accuracy(T=0.25 m): 0.8333   unmatched preds: 3   unmatched GT: 2
"""


def test_multi_image_evaluate_golden(tmp_path, capsys):
    for name, (image_id, objects) in EVAL_PREDS.items():
        (tmp_path / name).write_bytes(serialize_distances(image_id, objects))
    for name, (image_id, gts) in EVAL_TRUTHS.items():
        (tmp_path / name).write_bytes(serialize_ground_truth(image_id, gts))
    out = tmp_path / "report.json"
    rc = cli.dispatch([
        "evaluate",
        "--pred", *(str(tmp_path / n) for n in EVAL_PREDS),
        "--gt", *(str(tmp_path / n) for n in EVAL_TRUTHS),
        "--threshold", "0.25", "--out", str(out),
    ])
    assert rc == 0
    assert out.read_bytes() == MULTI_IMAGE_REPORT.encode()
    assert capsys.readouterr().out == MULTI_IMAGE_TABLE
