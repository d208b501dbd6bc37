"""Scene types and pinhole projection geometry.

Conventions used throughout the package:

* Vehicle frame: +x forward, +y left, +z up, origin at the sensor head.
* Camera frame: +z along the optical axis, +x image right, +y image down.
* Azimuths are measured in the vehicle ground plane as atan2(y, x), so the
  +x axis is azimuth 0 and counterclockwise is positive.  Because image
  right is camera +x and camera +x maps to the clockwise side of the optical
  axis, moving right in the image decreases azimuth.
* Angles are normalized to (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEPTH_EPSILON = 1e-6

# Metadata of a field that a file must hold, though code may take its default.
FILE_REQUIRED = {"required": True}


def wrap_angle(theta):
    """Wrap an angle (scalar or array, radians) into (-pi, pi]."""
    if isinstance(theta, (float, int)):
        # Python's float % takes np.mod's fmod-and-adjust steps, so a number
        # gets the array path's bits without the array round trip
        wrapped = (float(theta) + math.pi) % (2.0 * math.pi) - math.pi
        return math.pi if wrapped == -math.pi else wrapped
    wrapped = np.mod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix from a unit quaternion given as (w, x, y, z)."""
    w, x, y, z = (float(c) for c in q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(rot) -> tuple[float, float, float, float]:
    """Unit quaternion (w, x, y, z) from a rotation matrix."""
    m = np.asarray(rot, dtype=float)
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    if trace > 0.0:
        s = math.sqrt(trace + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    q = (w / norm, x / norm, y / norm, z / norm)
    if q[0] < 0.0:
        q = tuple(-c for c in q)
    return q


@dataclass(frozen=True)
class Pose:
    """Rigid transform mapping camera coordinates into the vehicle frame.

    q is a unit quaternion in (w, x, y, z) order, t the camera position.
    """

    q: tuple[float, float, float, float] = field(default=(1.0, 0.0, 0.0, 0.0), metadata=FILE_REQUIRED)
    t: tuple[float, float, float] = field(default=(0.0, 0.0, 0.0), metadata=FILE_REQUIRED)

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(float(c) for c in self.q))
        object.__setattr__(self, "t", tuple(float(c) for c in self.t))
        if len(self.q) != 4 or len(self.t) != 3:
            raise ValueError("pose needs a 4-vector quaternion and 3-vector translation")
        norm = math.sqrt(sum(c * c for c in self.q))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"quaternion norm {norm!r} deviates from 1 by more than 1e-9")

    @cached_property
    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    @cached_property
    def translation(self) -> np.ndarray:
        return np.array(self.t, dtype=float)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with intrinsics in pixels and a pose in the vehicle frame."""

    id: str
    fx: float
    fy: float
    cx: float
    cy: float
    width: float
    height: float
    pose: Pose = field(default_factory=Pose, metadata=FILE_REQUIRED)

    def __post_init__(self):
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError("image dimensions must be positive")

    @cached_property
    def hfov(self) -> float:
        """Horizontal field of view in radians."""
        return 2.0 * math.atan(self.width / (2.0 * self.fx))

    @cached_property
    def yaw(self) -> float:
        """Azimuth of the optical axis in the vehicle frame."""
        axis = self.pose.rotation @ np.array([0.0, 0.0, 1.0])
        return math.atan2(axis[1], axis[0])


@dataclass(frozen=True)
class BBox2D:
    """Axis-aligned pixel box with x_min <= x_max and y_min <= y_max."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("bbox min edges must not exceed max edges")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height


# Corner k of a box sits at these signs times its half dimensions, x slowest.
_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
)


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center, dimensions and ground-plane yaw.

    l extends along the heading axis, w across it, h vertically.  theta is
    normalized to (-pi, pi] on construction.
    """

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    theta: float

    def __post_init__(self):
        # written so that NaN fails too
        if not (self.l > 0.0 and self.w > 0.0 and self.h > 0.0):
            raise ValueError("box dimensions must be positive")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def corners(self) -> np.ndarray:
        """The 8 box corners as an (8, 3) array in the vehicle frame."""
        return box_corners([self])[0]


@dataclass(frozen=True)
class SceneObject:
    """A ground-truth object instance."""

    uid: int | str
    class_id: str
    box: Box3D


@dataclass(frozen=True, eq=False)
class Detection2D:
    """A single-camera 2D detection.

    Compared and hashed by identity: the same physical detection object is
    threaded through matching, frustum building and evaluation.
    """

    camera_id: str
    bbox: BBox2D
    class_id: str
    score: float
    embedding: np.ndarray | None = None
    truth_uid: int | str | None = None

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score!r} outside [0, 1]")
        if self.embedding is not None:
            emb = np.asarray(self.embedding, dtype=float)
            if emb.ndim != 1:
                raise ValueError("embedding must be a flat vector")
            object.__setattr__(self, "embedding", emb)


def check_topology(ids, adjacency) -> None:
    """ValueError unless the camera ids are unique and each adjacency pair
    joins two different ones; a rig and a match file hold the same topology."""
    known = set(ids)
    if len(known) != len(ids):
        raise ValueError("camera ids must be unique")
    for a, b in adjacency:
        if a == b:
            raise ValueError(f"self-pair {a!r} in adjacency")
        if a not in known or b not in known:
            raise ValueError(f"adjacency pair ({a!r}, {b!r}) references unknown camera")


@dataclass(frozen=True)
class CameraRig:
    """A set of cameras plus the list of camera pairs with overlapping views.

    Adjacency entries are processed in list order by the matcher; pairs are
    unordered for evaluation purposes.
    """

    cameras: tuple[CameraModel, ...]
    adjacency: tuple[tuple[str, str], ...] = field(default=(), metadata=FILE_REQUIRED)

    def __post_init__(self):
        object.__setattr__(self, "cameras", tuple(self.cameras))
        object.__setattr__(self, "adjacency", tuple((a, b) for a, b in self.adjacency))
        check_topology([cam.id for cam in self.cameras], self.adjacency)

    @cached_property
    def _by_id(self) -> dict:
        return {cam.id: cam for cam in self.cameras}

    def camera(self, camera_id: str) -> CameraModel:
        return self._by_id[camera_id]

    def unordered_adjacent_pairs(self) -> list[tuple[str, str]]:
        """Adjacency deduplicated as unordered pairs, first occurrence order."""
        seen = set()
        out = []
        for a, b in self.adjacency:
            key = frozenset((a, b))
            if key not in seen:
                seen.add(key)
                out.append((a, b))
        return out


def as_point_cloud(points) -> np.ndarray:
    """Validate and convert raw point data to an (N, 3) float64 array; empty
    data of any shape is (0, 3). ValueError for another shape or for a
    non-finite coordinate."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"a cloud must be (N, 3), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("a cloud holds non-finite coordinates")
    return arr


def project_points(cam: CameraModel, points, depth_epsilon: float = DEPTH_EPSILON):
    """Vectorized projection of an (N, 3) cloud.

    Returns (uv, depth, valid) where uv is (N, 2); entries with
    depth <= depth_epsilon are flagged invalid and their uv is NaN.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    p_cam = (pts - cam.pose.translation) @ cam.pose.rotation
    depth = p_cam[:, 2]
    valid = depth > depth_epsilon
    uv = np.full((len(pts), 2), np.nan)
    safe = np.where(valid, depth, 1.0)
    uv[:, 0] = np.where(valid, cam.cx + cam.fx * p_cam[:, 0] / safe, np.nan)
    uv[:, 1] = np.where(valid, cam.cy + cam.fy * p_cam[:, 1] / safe, np.nan)
    return uv, depth, valid


def box_corners(boxes) -> np.ndarray:
    """The corners of each box, stacked as an (n, 8, 3) array in the vehicle
    frame: the signed half dimensions, rotated by the yaw, plus the center.

    cos and sin come from math, one box at a time (np.cos may differ in the
    last bit), and each box's corners are one (8, 3) @ (3, 3) product with
    the transposed rotation, as a lone box's would be.
    """
    rows = [
        (b.x, b.y, b.z, b.l / 2.0, b.w / 2.0, b.h / 2.0, math.cos(b.theta), math.sin(b.theta))
        for b in boxes
    ]
    data = np.array(rows, dtype=float).reshape(-1, 8)
    c, s = data[:, 6], data[:, 7]
    rot = np.zeros((len(data), 3, 3))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1], rot[:, 2, 2] = c, -s, s, c, 1.0
    local = _CORNER_SIGNS * data[:, None, 3:6]
    return local @ rot.transpose(0, 2, 1) + data[:, None, :3]


def box_image_extents(cameras, corners: np.ndarray):
    """box3d_to_bbox2d of many boxes on many cameras, raw and clipped, from
    one stacked projection.

    cameras is a sequence of C CameraModels and corners an (n, 8, 3) stack
    from box_corners.  Returns (raw, clipped, visible): the (C, n, 4) rows
    x_min, y_min, x_max, y_max of each box's image bbox on each camera,
    those rows clipped to that camera's image, and the (C, n) mask of boxes
    whose clipped bbox has positive width and height, which a box wholly
    behind the camera, raw extents (inf, inf, -inf, -inf), never has.  The
    product is (C, n, 8, 3) @ (C, 1, 3, 3), so each (camera, box) pair
    still goes through its own (8, 3) @ (3, 3) product, with the bits of one
    camera at a time; corners at depth <= DEPTH_EPSILON are left out of the
    extremes, the rest are projected as f * p / depth + c, and the extremes
    are clipped after they are taken.  Every step after the product is
    elementwise or a min or max, so its layout does not change a bit.
    """
    rotations = np.array([cam.pose.rotation for cam in cameras]).reshape(-1, 1, 3, 3)
    # per camera: t, c, f and the image size
    params = np.array([[*cam.pose.t, cam.cx, cam.cy, cam.fx, cam.fy, cam.width, cam.height]
                       for cam in cameras]).reshape(-1, 9)
    p_cam = (corners[None] - params[:, None, None, :3]) @ rotations
    # each (8, C, n), so that the steps below run over whole rows of boxes
    x, y, z = np.ascontiguousarray(p_cam.transpose(3, 2, 0, 1))
    in_front = z > DEPTH_EPSILON
    depth = np.where(in_front, z, 1.0)
    cx, cy, fx, fy = params[:, 3:7, None].transpose(1, 0, 2)
    uv = np.stack([cx + fx * x / depth, cy + fy * y / depth], axis=1)
    lo = np.where(in_front[:, None], uv, np.inf).min(axis=0)
    hi = np.where(in_front[:, None], uv, -np.inf).max(axis=0)
    raw = np.concatenate([lo, hi]).transpose(1, 2, 0)
    clipped = np.clip(raw, 0.0, params[:, None, [7, 8, 7, 8]])
    return raw, clipped, ~(clipped[..., 2:] - clipped[..., :2] <= 0.0).any(axis=2)


def box3d_to_bbox2d(cam: CameraModel, box: Box3D, clip: bool = True) -> BBox2D | None:
    """Axis-aligned image bbox of a 3D box's corners.

    Corners at depth <= DEPTH_EPSILON are skipped and the rest projected
    as project_points projects them.  With clip=True the bbox is
    intersected with the image window.  Returns None when every corner is
    behind the camera or the (clipped) box has zero area.
    """
    raw, clipped, visible = box_image_extents([cam], box.corners()[None])
    row = (clipped if clip else raw)[0, 0]
    # the clipped mask's rule, under which a NaN extent counts as visible
    seen = visible[0, 0] if clip else not (row[2:] - row[:2] <= 0.0).any()
    return BBox2D(*row.tolist()) if seen else None


def angular_extent(cam: CameraModel, bbox: BBox2D) -> tuple[float, float]:
    """Azimuth interval subtended by a bbox, as (theta_min, theta_max).

    Rays are cast through the bbox's left and right edges at its vertical
    center.  theta_min is the edge encountered first going counterclockwise,
    which under the image-right-is-negative-azimuth convention is the
    image-right edge.  The interval runs counterclockwise from theta_min to
    theta_max and may wrap across +-pi.
    """
    v_mid = 0.5 * (bbox.y_min + bbox.y_max)
    azimuths = []
    for u in (bbox.x_max, bbox.x_min):
        d_cam = np.array([(u - cam.cx) / cam.fx, (v_mid - cam.cy) / cam.fy, 1.0])
        d_veh = cam.pose.rotation @ d_cam
        azimuths.append(wrap_angle(math.atan2(d_veh[1], d_veh[0])))
    return azimuths[0], azimuths[1]


def extent_width(extent: tuple[float, float]) -> float:
    """Counterclockwise width of an angular interval, in [0, 2*pi)."""
    return float(np.mod(extent[1] - extent[0], 2.0 * np.pi))


def extent_midpoint(extent: tuple[float, float]) -> float:
    """Circular midpoint of an angular interval."""
    return wrap_angle(extent[0] + 0.5 * extent_width(extent))
