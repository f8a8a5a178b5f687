"""Synthetic scene generator: ideal disparity maps with known detections and ground truth.

Objects are fronto-parallel constant-depth rectangles, so the median depth
inside each box is exactly the object depth and the whole pipeline can be
checked analytically.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import _decode, _dump
from .detect import BoundingBox, Detection, DetectionSet, _bbox_coords, _bbox_list, _box_array
from .errors import SceneError
from .evaluate import GroundTruthObject
from .maps import DepthRange, MapKind, ScalarMap, depth_to_disparity_value
from .roi import _project


@dataclass(frozen=True)
class SceneObject:
    class_name: str
    depth: float
    bbox: BoundingBox

    def __post_init__(self):
        object.__setattr__(self, "depth", float(self.depth))


@dataclass(frozen=True)
class SceneSpec:
    map_width: int
    map_height: int
    background_depth: float
    objects: tuple[SceneObject, ...] = ()
    depth_range: DepthRange = field(default_factory=DepthRange)
    noise_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "background_depth", float(self.background_depth))
        object.__setattr__(self, "noise_amplitude", float(self.noise_amplitude))
        if self.map_width <= 0 or self.map_height <= 0:
            raise SceneError(f"map dimensions must be positive, got {self.map_width}x{self.map_height}")
        rng = self.depth_range
        if not rng.min_depth <= self.background_depth <= rng.max_depth:
            raise SceneError(f"background depth {self.background_depth} outside range")
        for obj in self.objects:
            if not rng.min_depth <= obj.depth <= rng.max_depth:
                raise SceneError(f"object depth {obj.depth} outside range")
            if obj.bbox.x1 > self.map_width or obj.bbox.y1 > self.map_height:
                raise SceneError(f"object box {obj.bbox} outside {self.map_width}x{self.map_height} map")
        # disparity is clipped to [0, 1], so a larger amplitude only saturates pixels
        if not 0.0 <= self.noise_amplitude <= 1.0:
            raise SceneError(f"noise amplitude must be in [0, 1], got {self.noise_amplitude}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise SceneError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "objects", tuple(self.objects))


def render_scene(
    spec: SceneSpec,
) -> tuple[ScalarMap, DetectionSet, list[GroundTruthObject]]:
    """Render the scene's ideal disparity map, detections and ground truth.

    Each pixel's disparity is the exact algebraic inverse of the
    disparity->depth transform for that pixel's depth; where boxes overlap
    the nearer object wins. Disparity is quantized to float32 to match the
    PFM interchange precision. Detections carry confidence 1.0.
    """
    depth = np.full((spec.map_height, spec.map_width), spec.background_depth, dtype=np.float64)
    dims = (spec.map_width, spec.map_height)
    # nearer objects painted last so they overwrite farther ones, on the cells that pooling reads
    objects = sorted(spec.objects, key=lambda o: -o.depth)
    rects = _project(_box_array(o.bbox for o in objects), dims, dims).tolist()
    for obj, (col0, row0, col1, row1) in zip(objects, rects):
        depth[row0:row1, col0:col1] = obj.depth

    disparity = depth_to_disparity_value(depth, spec.depth_range)
    if spec.noise_amplitude > 0:
        rng = np.random.default_rng(spec.seed)
        disparity = disparity + rng.uniform(
            -spec.noise_amplitude, spec.noise_amplitude, size=disparity.shape
        )
    disparity = np.clip(disparity, 0.0, 1.0).astype(np.float32).astype(np.float64)

    disp_map = ScalarMap(
        width=spec.map_width, height=spec.map_height, kind=MapKind.DISPARITY, values=disparity
    )
    detections = DetectionSet(
        image_id="synthetic",
        image_width=spec.map_width,
        image_height=spec.map_height,
        detections=tuple(
            Detection(class_id=i, class_name=o.class_name, confidence=1.0, bbox=o.bbox)
            for i, o in enumerate(spec.objects)
        ),
    )
    gts = [
        GroundTruthObject(class_name=o.class_name, abs_distance=o.depth, bbox=o.bbox)
        for o in spec.objects
    ]
    return disp_map, detections, gts


def parse_scene(data: bytes | str) -> SceneSpec:
    """Parse the `.scene.json` format."""
    with _decode(data, SceneError, "scene") as doc:
        objects = tuple(
            SceneObject(
                class_name=str(o["class_name"]),
                depth=o["depth_m"],
                bbox=BoundingBox(*_bbox_coords(o["bbox"])),
            )
            for o in doc.get("objects", [])
        )
        return SceneSpec(
            map_width=int(doc["map_width"]),
            map_height=int(doc["map_height"]),
            background_depth=doc["background_depth_m"],
            objects=objects,
            depth_range=DepthRange.from_dict(doc.get("depth_range", {})),
            noise_amplitude=doc.get("noise_amplitude", 0.0),
            seed=int(doc.get("seed", 0)),
        )


def serialize_scene(spec: SceneSpec) -> bytes:
    return _dump({
        "map_width": spec.map_width,
        "map_height": spec.map_height,
        "background_depth_m": spec.background_depth,
        "depth_range": spec.depth_range.to_dict(),
        "objects": [
            {
                "class_name": o.class_name,
                "depth_m": o.depth,
                "bbox": _bbox_list(o.bbox),
            }
            for o in spec.objects
        ],
        "noise_amplitude": spec.noise_amplitude,
        "seed": spec.seed,
    })
