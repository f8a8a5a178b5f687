"""Per-object absolute distance from monocular depth maps and object detections.

Each public name loads its submodule on first access, so `import monodist`
(and every `monodist.cli` command) imports only the modules it uses.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "calib": "CalibrationModel CalibrationSample fit_quadratic",
        "detect": "BoundingBox Detection DetectionSet filter_confidence iou nms",
        "evaluate": "GroundTruthObject MatchedPair MetricsReport match_objects",
        "maps": "DepthRange MapKind ScalarMap disparity_to_depth read_pfm write_pfm",
        "roi": "IndexRect ObjectDistance measure_objects median_depth project_bbox",
        "synth": "SceneObject SceneSpec render_scene",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
