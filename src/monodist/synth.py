"""Synthetic scene generator: ideal disparity maps with known detections and ground truth.

Objects are fronto-parallel constant-depth rectangles, so the median depth
inside each box is exactly the object depth and the whole pipeline can be
checked analytically.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import _Table, _decode, _dump
from .detect import BoundingBox, Columns, DetectionSet, _bbox_list, _check_fields, _coord_array
from .errors import SceneError, _float, _shown
from .evaluate import GroundTruthObject
from .maps import DepthRange, MapKind, ScalarMap, depth_to_disparity_value
from .roi import _project


@dataclass(frozen=True)
class SceneObject:
    class_name: str
    depth: float
    bbox: BoundingBox

    def __post_init__(self):
        object.__setattr__(self, "depth", _float(self.depth))


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
        object.__setattr__(self, "background_depth", _float(self.background_depth))
        object.__setattr__(self, "noise_amplitude", _float(self.noise_amplitude))
        dims = f"{_shown(self.map_width)}x{_shown(self.map_height)}"
        if self.map_width <= 0 or self.map_height <= 0:
            raise SceneError(f"map dimensions must be positive, got {dims}")
        rng = self.depth_range
        if not rng.min_depth <= self.background_depth <= rng.max_depth:
            raise SceneError(f"background depth {self.background_depth} outside range")
        for obj in self.objects:
            if not rng.min_depth <= obj.depth <= rng.max_depth:
                raise SceneError(f"object depth {obj.depth} outside range")
            if obj.bbox.x1 > self.map_width or obj.bbox.y1 > self.map_height:
                raise SceneError(f"object box {obj.bbox} outside {dims} map")
        # disparity is clipped to [0, 1], so a larger amplitude only saturates pixels
        if not 0.0 <= self.noise_amplitude <= 1.0:
            raise SceneError(f"noise amplitude must be in [0, 1], got {self.noise_amplitude}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise SceneError(f"seed must be a non-negative integer, got {_shown(self.seed, repr)}")
        object.__setattr__(self, "objects", tuple(self.objects))


def render_scene(
    spec: SceneSpec,
) -> tuple[ScalarMap, DetectionSet, list[GroundTruthObject]]:
    """Render the scene's ideal disparity map, detections and ground truth.

    Each of the scene's depths, the background's and each object's, becomes
    one disparity, by the exact algebraic inverse of the disparity->depth
    transform, painted into a float32 map at the PFM interchange precision;
    where boxes overlap the nearer object wins. Values are clipped to [0, 1]
    and rounded to float32 per depth, or per pixel once noise is added.
    Detections carry confidence 1.0.
    """
    ids = list(range(len(spec.objects)))
    names, conf = _check_fields(ids, [o.class_name for o in spec.objects], [1.0] * len(ids))
    depths = [spec.background_depth, *(o.depth for o in spec.objects)]
    values = depth_to_disparity_value(depths, spec.depth_range)
    noisy = spec.noise_amplitude > 0
    if not noisy:
        values = np.clip(values, 0.0, 1.0).astype(np.float32)
    try:
        disparity = np.full((spec.map_height, spec.map_width), values[0])
    except ValueError as e:  # a size numpy cannot index, raised before any memory is touched
        raise SceneError(f"map {spec.map_width}x{spec.map_height} is too large: {e}") from None
    dims = (spec.map_width, spec.map_height)
    boxes = _coord_array([_bbox_list(o.bbox) for o in spec.objects])
    placed = zip(spec.objects, values[1:], _project(boxes, dims, dims).tolist())
    # nearer objects painted last so they overwrite farther ones, on the cells that pooling reads
    for _, value, (col0, row0, col1, row1) in sorted(placed, key=lambda p: -p[0].depth):
        disparity[row0:row1, col0:col1] = value
    if noisy:
        rng = np.random.default_rng(spec.seed)
        disparity += rng.uniform(-spec.noise_amplitude, spec.noise_amplitude, size=disparity.shape)
        disparity = np.clip(disparity, 0.0, 1.0, out=disparity).astype(np.float32)

    disp_map = ScalarMap(
        width=spec.map_width, height=spec.map_height, kind=MapKind.DISPARITY, values=disparity
    )
    columns = Columns(names, boxes, confidence=conf, class_ids=ids)
    detections = DetectionSet("synthetic", spec.map_width, spec.map_height, columns)
    gts = [
        GroundTruthObject(class_name=o.class_name, abs_distance=o.depth, bbox=o.bbox)
        for o in spec.objects
    ]
    return disp_map, detections, gts


def parse_scene(data: bytes | str) -> SceneSpec:
    """Parse the `.scene.json` format."""
    with _decode(data, SceneError, "scene") as doc:
        raw = doc.get("objects", [])
        objects = tuple(
            SceneObject(
                class_name=str(o["class_name"]),
                depth=o["depth_m"],
                bbox=BoundingBox(*box),
            )
            for o, box in zip(raw, _coord_array([o["bbox"] for o in raw]).tolist())
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
        "objects": _Table(
            class_name=[o.class_name for o in spec.objects],
            depth_m=[o.depth for o in spec.objects],
            bbox=[_bbox_list(o.bbox) for o in spec.objects],
        ),
        "noise_amplitude": spec.noise_amplitude,
        "seed": spec.seed,
    })
