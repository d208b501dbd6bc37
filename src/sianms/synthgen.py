"""Deterministic synthetic scenes, detections and embeddings.

Everything derives from a seed plus the frame index, so repeated runs are
bit-identical.  Objects are placed on the ground plane around a ring camera
rig; a configurable fraction lands inside the azimuth wedges where two
adjacent camera views overlap.  LiDAR points are sampled on the box faces
visible from the sensor origin (so single-camera views of a wedge object see
a truncated slice of its surface), plus ground clutter.

Object yaw is sampled within roughly +-80 degrees of the object's azimuth.
A purely geometric box fitter cannot tell front from back, so ground truth
keeps headings in the branch recoverable from the viewing direction.

A frame is built in two passes.  The loop over objects makes every random
draw in order (class, placement, yaw, point count, then each point's face
and its two offsets on it) and decides face visibility and areas in Python
floats; one array expression then places every object's points on the
stacked faces.  The results, and the generator state after each draw, are
bit for bit those of sampling each object inside the loop.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .scene import (
    BBox2D,
    Box3D,
    CameraModel,
    CameraRig,
    Detection2D,
    Pose,
    SceneObject,
    box_corners,
    box_image_extents,
    matrix_to_quat,
    wrap_angle,
)

CLASS_DIMS = {
    "car": (4.5, 1.9, 1.6),
    "pedestrian": (0.6, 0.6, 1.7),
    "cyclist": (1.8, 0.6, 1.7),
}

GROUND_Z = -1.7  # sensor head sits 1.7 m above the ground plane
MIN_CENTER_SPACING = 2.0
YAW_HALF_RANGE = 1.4  # radians around the object's azimuth

# Camera-to-vehicle rotation for a camera whose optical axis points along
# vehicle +x: camera right -> vehicle -y, camera down -> vehicle -z.
_BASE_ROTATION = np.array(
    [
        [0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0],
    ]
)


class NoOverlap(ValueError):
    """The rig spec leaves no overlap between adjacent camera views."""


@dataclass(frozen=True)
class RigSpec:
    """Ring rig layout: n cameras at uniform yaw spacing, shared origin."""

    n_cameras: int = 6
    hfov_deg: float = 70.0
    yaw_spacing_deg: float = 60.0
    width: int = 800
    height: int = 500

    def __post_init__(self):
        if self.n_cameras < 1:
            raise ValueError("need at least one camera")
        if not 0.0 < self.hfov_deg < 180.0:
            raise ValueError("hfov_deg must be in (0, 180)")


@dataclass(frozen=True)
class GenSpec:
    """Scene generation parameters; all randomness is driven by seed."""

    seed: int = 0
    n_frames: int = 10
    objects_per_frame: tuple[int, int] = (6, 10)
    class_mix: dict[str, float] = field(
        default_factory=lambda: {"car": 0.5, "pedestrian": 0.3, "cyclist": 0.2}
    )
    radius_range: tuple[float, float] = (8.0, 30.0)
    overlap_fraction: float = 0.5
    embed_dim: int = 16
    embed_noise: float = 0.0
    miss_rate: float = 0.0
    bbox_jitter_px: float = 0.0
    lidar_points_range: tuple[int, int] = (60, 120)
    clutter_points: int = 300

    def __post_init__(self):
        for name in ("objects_per_frame", "radius_range", "lidar_points_range"):
            pair = getattr(self, name)
            if not (
                isinstance(pair, (tuple, list))
                and len(pair) == 2
                and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in pair)
            ):
                raise ValueError(f"{name} must be a (low, high) pair of numbers, got {pair!r}")
            # written so that NaN fails too
            if not pair[0] <= pair[1]:
                raise ValueError(f"{name} must have low <= high, got {pair!r}")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must be in [0, 1]")
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ValueError("miss_rate must be in [0, 1]")
        if self.embed_noise < 0.0 or self.bbox_jitter_px < 0.0:
            raise ValueError("noise magnitudes must be nonnegative")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        weights = list(self.class_mix.values())
        if not (
            weights
            and all(0.0 <= w < math.inf for w in weights)
            and 0.0 < sum(weights) < math.inf
        ):
            raise ValueError("class_mix must hold finite nonnegative weights, not all zero")
        for cls in self.class_mix:
            if cls not in CLASS_DIMS:
                raise ValueError(f"unknown class {cls!r}")


def benchmark_gen_spec(seed: int = 42, noisy: bool = False) -> GenSpec:
    """The canonical 50-frame benchmark scene; noisy adds embedding noise
    and bbox jitter while keeping the geometry identical."""
    return GenSpec(
        seed=seed,
        n_frames=50,
        objects_per_frame=(6, 10),
        overlap_fraction=0.5,
        embed_noise=0.05 if noisy else 0.0,
        bbox_jitter_px=2.0 if noisy else 0.0,
        miss_rate=0.0,
    )


def make_rig(spec: RigSpec) -> CameraRig:
    """Build the ring rig; adjacency links consecutive cameras.

    Raises NoOverlap when hfov <= yaw spacing (no shared view to match in).
    """
    if spec.n_cameras > 1 and spec.hfov_deg <= spec.yaw_spacing_deg:
        raise NoOverlap(
            f"hfov {spec.hfov_deg} deg <= spacing {spec.yaw_spacing_deg} deg"
        )
    hfov = math.radians(spec.hfov_deg)
    fx = (spec.width / 2.0) / math.tan(hfov / 2.0)
    cameras = []
    for k in range(spec.n_cameras):
        yaw = math.radians(spec.yaw_spacing_deg * k)
        c, s = math.cos(yaw), math.sin(yaw)
        rot_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        q = matrix_to_quat(rot_z @ _BASE_ROTATION)
        cameras.append(
            CameraModel(
                id=f"cam{k}",
                fx=fx,
                fy=fx,
                cx=spec.width / 2.0,
                cy=spec.height / 2.0,
                width=float(spec.width),
                height=float(spec.height),
                pose=Pose(q=q),
            )
        )
    adjacency = []
    if spec.n_cameras > 1:
        adjacency = [
            (f"cam{k}", f"cam{(k + 1) % spec.n_cameras}") for k in range(spec.n_cameras)
        ]
    return CameraRig(cameras=tuple(cameras), adjacency=tuple(adjacency))


def overlap_wedges(rig: CameraRig) -> list[tuple[float, float]]:
    """Azimuth intervals (start, width) where adjacent camera views overlap."""
    wedges = []
    for cam_a_id, cam_b_id in rig.unordered_adjacent_pairs():
        cam_a = rig.camera(cam_a_id)
        cam_b = rig.camera(cam_b_id)
        half = min(cam_a.hfov, cam_b.hfov) / 2.0
        delta = wrap_angle(cam_b.yaw - cam_a.yaw)
        if delta < 0.0:
            cam_a, cam_b = cam_b, cam_a
            delta = -delta
        width = cam_a.hfov / 2.0 + cam_b.hfov / 2.0 - delta
        if width <= 0.0:
            continue
        start = wrap_angle(cam_b.yaw - cam_b.hfov / 2.0)
        wedges.append((start, min(width, half * 2.0)))
    return wedges


def _complement_arcs(wedges) -> list[tuple[float, float]]:
    """Arcs of the circle not covered by any wedge (wedges assumed disjoint)."""
    if not wedges:
        return [(-math.pi, 2.0 * math.pi)]
    ordered = sorted(wedges, key=lambda w: w[0])
    arcs = []
    for (start, width), (next_start, _) in zip(ordered, ordered[1:] + ordered[:1]):
        end = start + width
        gap = float(np.mod(next_start - end, 2.0 * np.pi))
        if gap > 0.0:
            arcs.append((wrap_angle(end), gap))
    return arcs


# rng.choice's tolerance on the sum of its probabilities
_P_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _choice(p, rng, size=None):
    """rng.choice(len(p), size, p=p) without its argument handling: the same
    uniform draws through the same cdf, so the same indices and generator
    state.  The cdf is built in Python floats: accumulate makes cumsum's
    left-to-right adds, and every entry is then divided by the last.  One
    draw is placed by bisect_right, size draws by one searchsorted.  Like
    rng.choice, raises ValueError unless p is nonnegative and sums to 1 (so
    also for a NaN)."""
    p = [float(v) for v in p]
    cdf = list(accumulate(p))
    if not (abs(cdf[-1] - 1.0) <= _P_ATOL and min(p) >= 0.0):
        raise ValueError(f"probabilities must be nonnegative and sum to 1, got {p}")
    total = cdf[-1]
    cdf = [c / total for c in cdf]
    if size is None:
        return bisect_right(cdf, rng.random())
    return np.array(cdf).searchsorted(rng.random(size), side="right")


def _arc_shares(arcs) -> list[float]:
    """Each arc's share of the arcs' total length, summed by numpy (which
    adds pairwise from 8 arcs on)."""
    lengths = np.array([width for _, width in arcs])
    return (lengths / lengths.sum()).tolist()


def _faces_origin(normal, center) -> bool:
    """Whether normal . center < 0, as np.dot(normal, center) decides it.

    np.dot goes through BLAS, which may fuse a multiply and an add and so
    round differently from t0 + t1 + t2.  Both are within about 3.3e-16 *
    (|t0| + |t1| + |t2|) of the exact value, so the Python sum decides the
    sign only when it is far outside that band (and above where products
    could underflow); np.dot decides the rest, non-finite input included.
    """
    t0, t1, t2 = normal[0] * center[0], normal[1] * center[1], normal[2] * center[2]
    total = t0 + t1 + t2
    if abs(total) > 1e-9 * (abs(t0) + abs(t1) + abs(t2)) + 1e-300:
        return total < 0.0
    return float(np.dot(normal, center)) < 0.0


# (normal axis, u axis, v axis) of the face pairs, in face order
_FACE_AXES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def _visible_faces(box: Box3D) -> list[tuple]:
    """Faces of the box visible from the origin, as sampling rows.

    Each row is (center xyz, axis_u xyz, axis_v xyz, half_u, half_v) in the
    vehicle frame, in the order +x, -x, +y, -y, +z, -z of the box axes.  A
    face is visible when its outward normal points back at the origin.
    Each face center is center +- half * axis, one coordinate at a time, so
    it has the bits of the array expression.
    """
    c, s = math.cos(box.theta), math.sin(box.theta)
    axes = ((c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0))
    halves = (box.l / 2.0, box.w / 2.0, box.h / 2.0)
    x, y, z = float(box.x), float(box.y), float(box.z)
    rows = []
    for k, u, v in _FACE_AXES:
        (ax, ay, az), half = axes[k], halves[k]
        sampling = (*axes[u], *axes[v], halves[u], halves[v])
        front = (x + half * ax, y + half * ay, z + half * az)
        if _faces_origin((ax, ay, az), front):
            rows.append(front + sampling)
        back = (x - half * ax, y - half * ay, z - half * az)
        if _faces_origin((-ax, -ay, -az), back):
            rows.append(back + sampling)
    return rows


def _face_draws(faces, n_points: int, rng):
    """The draws of n_points on faces, in sampling order: an area-weighted
    face index per point, then the u offsets, then the v offsets.

    A box shows at most 3 faces, and numpy sums fewer than 8 terms left to
    right, so accumulate's last entry is areas.sum() bit for bit.
    """
    areas = [4.0 * hu * hv for *_, hu, hv in faces]
    total = list(accumulate(areas))[-1]
    choices = _choice([a / total for a in areas], rng, n_points)
    offsets_u = rng.uniform(-1.0, 1.0, size=n_points)
    offsets_v = rng.uniform(-1.0, 1.0, size=n_points)
    return choices, offsets_u, offsets_v


def _surface_points(faces, draws) -> np.ndarray:
    """The points of every draw, in draw order, from one array expression.

    faces holds the face rows of every sampled box, stacked, and draws one
    (first row, choices, offsets_u, offsets_v) per box; each point is
    center + (ou * hu) * axis_u + (ov * hv) * axis_v of its face, the same
    elementwise steps whether one box is sampled or many.
    """
    if not draws:
        return np.zeros((0, 3))
    firsts, choices, offsets_u, offsets_v = zip(*draws)
    choices = np.concatenate(choices) + np.repeat(firsts, [len(c) for c in choices])
    face = np.array(faces)[choices]
    return (
        face[:, 0:3]
        + (np.concatenate(offsets_u) * face[:, 9])[:, None] * face[:, 3:6]
        + (np.concatenate(offsets_v) * face[:, 10])[:, None] * face[:, 6:9]
    )


def sample_surface_points(box: Box3D, n_points: int, rng) -> np.ndarray:
    """Sample points on the visible surface, area-weighted across faces."""
    faces = _visible_faces(box)
    if not faces or n_points <= 0:
        return np.zeros((0, 3))
    return _surface_points(faces, [(0, *_face_draws(faces, n_points, rng))])


def generate_frame(rig: CameraRig, spec: GenSpec, frame_index: int):
    """One frame's ground truth: (objects, cloud).

    Deterministic per (spec.seed, frame_index).  Object uids are unique
    across frames.  Each object's LiDAR points lie on its surface; clutter
    sits on the ground plane.  The loop over objects makes every random
    draw, in order; the surface points of all objects are then built at
    once from the stacked faces and draws.
    """
    rng = np.random.default_rng([spec.seed, 0, frame_index])
    wedges = overlap_wedges(rig)
    complement = _complement_arcs(wedges) or wedges
    # the arcs an object is placed on, in a wedge or outside, with their shares
    inside = (wedges, _arc_shares(wedges)) if wedges else None
    outside = (complement, _arc_shares(complement))
    n_objects = int(rng.integers(spec.objects_per_frame[0], spec.objects_per_frame[1] + 1))
    classes = list(spec.class_mix.keys())
    weights = np.array([spec.class_mix[c] for c in classes], dtype=float)
    weights = (weights / weights.sum()).tolist()
    objects = []
    centers = []
    faces = []
    draws = []
    for k in range(n_objects):
        cls = classes[_choice(weights, rng)]
        l, w, h = CLASS_DIMS[cls]
        for _attempt in range(40):
            in_wedge = rng.random() < spec.overlap_fraction
            arcs, shares = inside if (in_wedge and inside) else outside
            start, width = arcs[_choice(shares, rng)]
            azimuth = wrap_angle(start + rng.uniform(0.0, width))
            radius = rng.uniform(*spec.radius_range)
            x, y = radius * math.cos(azimuth), radius * math.sin(azimuth)
            if all(math.hypot(x - cx, y - cy) >= MIN_CENTER_SPACING for cx, cy in centers):
                break
        yaw = wrap_angle(azimuth + rng.uniform(-YAW_HALF_RANGE, YAW_HALF_RANGE))
        box = Box3D(x=x, y=y, z=GROUND_Z + h / 2.0, l=l, w=w, h=h, theta=yaw)
        uid = frame_index * 10000 + k
        objects.append(SceneObject(uid=uid, class_id=cls, box=box))
        centers.append((x, y))
        n_pts = int(rng.integers(spec.lidar_points_range[0], spec.lidar_points_range[1] + 1))
        visible = _visible_faces(box)
        if visible and n_pts > 0:
            draws.append((len(faces), *_face_draws(visible, n_pts, rng)))
            faces += visible
    cloud = _surface_points(faces, draws)
    if spec.clutter_points > 0:
        radii = spec.radius_range[1] * np.sqrt(rng.uniform(0.0, 1.0, spec.clutter_points))
        angles = rng.uniform(-math.pi, math.pi, spec.clutter_points)
        clutter = np.column_stack(
            [radii * np.cos(angles), radii * np.sin(angles), np.full(spec.clutter_points, GROUND_Z)]
        )
        cloud = np.vstack([cloud, clutter])
    return objects, cloud


def _uid_seed(truth_uid) -> int:
    """Stable 64-bit seed from a truth uid, independent of hash salting."""
    tag = f"{type(truth_uid).__name__}:{truth_uid}".encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "little")


def _uid_anchor(truth_uid, embed_dim: int) -> np.ndarray:
    """The standard-normal anchor embedding of a truth uid."""
    return np.random.default_rng(_uid_seed(truth_uid)).standard_normal(embed_dim)


def embedding_provider(truth_uid, spec: GenSpec, rng=None) -> np.ndarray:
    """Embedding = per-uid anchor plus Gaussian noise of scale embed_noise.

    The anchor is a deterministic standard-normal vector seeded by hashing
    the uid, so the same identity maps to the same anchor in any frame and
    distinct identities are far apart with overwhelming probability.  rng is
    required when embed_noise > 0 (noise is re-sampled per detection).
    """
    anchor = _uid_anchor(truth_uid, spec.embed_dim)
    if rng is None:
        if spec.embed_noise > 0.0:
            raise ValueError("an rng is required when embed_noise > 0")
        return anchor
    return _add_embed_noise(anchor, spec, rng)


def _add_embed_noise(anchor: np.ndarray, spec: GenSpec, rng) -> np.ndarray:
    """anchor plus embed_noise times one standard-normal draw from rng."""
    return anchor + spec.embed_noise * rng.standard_normal(spec.embed_dim)


def simulate_detections(
    rig: CameraRig, objects, spec: GenSpec, frame_index: int = 0
) -> list[Detection2D]:
    """Deterministic detector stand-in.

    Every object visible in a camera yields at most one detection there:
    the clipped projected bbox plus uniform per-edge jitter, a score in
    [0.5, 1], the truth uid and an embedding as embedding_provider gives it
    (the uid anchor is drawn at an object's first detection and reused,
    the noise per detection).  Detections are dropped with miss_rate, or when jitter
    collapses the bbox.
    """
    projection = box_image_extents(rig.cameras, box_corners(obj.box for obj in objects))
    return _simulate_projected(rig, objects, spec, frame_index, projection)


def _simulate_projected(rig, objects, spec, frame_index, projection) -> list[Detection2D]:
    """simulate_detections, given the objects' projection on the rig as
    box_image_extents(rig.cameras, corners) returns it."""
    rng = np.random.default_rng([spec.seed, 1, frame_index])
    detections = []
    # an object's anchor is drawn from its own uid-seeded generator at its
    # first detection and reused for the rest
    anchors = [None] * len(objects)
    _, extents, visible = projection
    for cam, cam_extents, cam_visible in zip(rig.cameras, extents.tolist(), visible.tolist()):
        for k, (obj, bbox, seen) in enumerate(zip(objects, cam_extents, cam_visible)):
            if not seen:
                continue
            if rng.random() < spec.miss_rate:
                continue
            j = spec.bbox_jitter_px
            offsets = rng.uniform(-j, j, size=4) if j > 0.0 else np.zeros(4)
            x_min = min(max(bbox[0] + offsets[0], 0.0), cam.width)
            y_min = min(max(bbox[1] + offsets[1], 0.0), cam.height)
            x_max = min(max(bbox[2] + offsets[2], 0.0), cam.width)
            y_max = min(max(bbox[3] + offsets[3], 0.0), cam.height)
            if x_max - x_min <= 0.0 or y_max - y_min <= 0.0:
                continue
            score = float(rng.uniform(0.5, 1.0))
            if anchors[k] is None:
                anchors[k] = _uid_anchor(obj.uid, spec.embed_dim)
            embedding = _add_embed_noise(anchors[k], spec, rng)
            detections.append(
                Detection2D(
                    camera_id=cam.id,
                    bbox=BBox2D(x_min, y_min, x_max, y_max),
                    class_id=obj.class_id,
                    score=score,
                    embedding=embedding,
                    truth_uid=obj.uid,
                )
            )
    return detections
