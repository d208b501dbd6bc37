"""Workloads of the sianms benchmark.

Each workload turns a seed into input files, runs timed passes through the
real entry point (``sianms.cli.main``) and checks every pass's output with
invariants that do not trust the code under test: byte digests that must
repeat, box lists that two variants must share, count identities, and
round trips compared bit for bit against the in-memory scene.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
from collections.abc import Callable
from pathlib import Path

import numpy as np

from sianms import cli
from sianms.pipeline import Frame, Scene, Variant
from sianms.sceneio import load_detection_records, load_scene
from sianms.synthgen import (
    GenSpec,
    RigSpec,
    benchmark_gen_spec,
    generate_frame,
    make_rig,
    simulate_detections,
)

# variants whose every detection either becomes a box or is counted as dropped
_PER_DETECTION_VARIANTS = (Variant.ORIGINAL, Variant.EMBEDDING_2D, Variant.ORIGINAL_NMS)

QUALITY_UNITS = {
    "frame_error_ratio": "ratio",
    "reid_precision": "ratio",
    "reid_recall": "ratio",
    "ap3d_overlap_gain": "AP_points",
    "ap3d_all_sianms": "AP",
}


# spec seeds tried per workload seed when sizing a scene by its detections
SEED_STRIDE = 1000


@dataclasses.dataclass(frozen=True)
class Workload:
    """A workload's rig, generator spec and scene size.

    The scene has ``frames`` frames.  With ``detections`` set, its spec
    seed is the first one from ``seed * SEED_STRIDE`` upward whose frames
    give exactly that many simulated detections, so every seed gives a pass
    of the same work (the estimator runs once per detection and variant)
    and a set-up of the same frame count.  Object counts vary from 6 to 10
    per frame, so a plain spec seed would spread the work by about 10%
    across seeds.
    """

    name: str
    kind: str  # "compare" or "generate"
    rig: RigSpec
    gen: Callable[[int, int], GenSpec]  # (spec seed, frames) -> spec
    frames: int
    detections: int = 0
    exact_reid: bool = False  # noise-free rig: every produced match is a true one

    def spec_for(self, seed: int) -> GenSpec:
        if not self.detections:
            return self.gen(seed, self.frames)
        rig = make_rig(self.rig)
        for spec_seed in range(seed * SEED_STRIDE, (seed + 1) * SEED_STRIDE):
            gen = self.gen(spec_seed, self.frames)
            total = 0
            for index in range(self.frames):
                objects, _ = generate_frame(rig, gen, index)
                total += len(simulate_detections(rig, objects, gen, index))
                if total > self.detections:
                    break
            if total == self.detections:
                return gen
        raise ValueError(
            f"{self.name}: no spec seed from {seed * SEED_STRIDE} gives "
            f"{self.detections} detections in {self.frames} frames"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-noisy",
            kind="compare",
            rig=RigSpec(),
            gen=lambda seed, n: dataclasses.replace(
                benchmark_gen_spec(seed, noisy=True), n_frames=n
            ),
            frames=5,
            detections=65,
        ),
        Workload(
            name="compare-ring8",
            kind="compare",
            rig=RigSpec(n_cameras=8, yaw_spacing_deg=45.0, hfov_deg=100.0),
            gen=lambda seed, n: GenSpec(seed=seed, n_frames=n),
            frames=3,
            detections=62,
            exact_reid=True,
        ),
        Workload(
            name="generate-io",
            kind="generate",
            rig=RigSpec(),
            gen=lambda seed, n: dataclasses.replace(benchmark_gen_spec(seed), n_frames=n),
            frames=100,
        ),
    )
}


def run_cli(argv: list[str]) -> None:
    """Call the console entry point as a user would, keeping its printout
    off this process's stdout; raise if it exits non-zero."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"sianms {argv[0]} exited {code}: {err.getvalue().strip()}")


@contextlib.contextmanager
def capture_comparison():
    """Hold on to the Comparison that ``sianms compare`` builds, so the
    boxes behind its reports can be checked; the output is unchanged."""
    captured: list = []
    inner = cli.compare_variants

    def capturing(*args, **kwargs):
        result = inner(*args, **kwargs)
        captured.append(result)
        return result

    cli.compare_variants = capturing
    try:
        yield captured
    finally:
        cli.compare_variants = inner


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def build_scene(rig, gen: GenSpec) -> Scene:
    frames = []
    for index in range(gen.n_frames):
        objects, cloud = generate_frame(rig, gen, index)
        frames.append(Frame(index=index, objects=tuple(objects), cloud=cloud))
    return Scene(rig=rig, frames=tuple(frames))


# -- checks -----------------------------------------------------------------


def _box_rows(result) -> list[tuple]:
    return [
        (b.frame, b.class_id, b.score, dataclasses.astuple(b.box), b.n_sources, b.merged)
        for frame in sorted(result.boxes)
        for b in result.boxes[frame]
    ]


def check_comparison(comparison, exact_reid: bool) -> list[str]:
    """Invariants that hold for any correct ``compare`` run."""
    failures = []
    results = comparison.results
    reports = comparison.reports
    for variant, report in reports.items():
        if report.errors:
            failures.append(f"{variant}: {len(report.errors)} frame errors")
    original = _box_rows(results[Variant.ORIGINAL.value])
    if _box_rows(results[Variant.EMBEDDING_2D.value]) != original:
        failures.append("original and 2d+embedding emit different boxes")
    if len(_box_rows(results[Variant.SIANMS.value])) > len(original):
        failures.append("sianms emits more boxes than original")
    for variant in _PER_DETECTION_VARIANTS:
        counts = reports[variant.value].counts
        n_boxes = len(_box_rows(results[variant.value]))
        accounted = (
            n_boxes + counts["dropped_too_few_points"] + counts["dropped_empty_frustum"]
        )
        if counts["boxes_3d"] != n_boxes or counts["detections_2d"] != accounted:
            failures.append(
                f"{variant.value}: detections_2d {counts['detections_2d']} != "
                f"{n_boxes} boxes + {counts['dropped_too_few_points']} too few points "
                f"+ {counts['dropped_empty_frustum']} empty frustums"
            )
    if exact_reid:
        sianms = results[Variant.SIANMS.value]
        wrong = sum(
            pair.a.truth_uid != pair.b.truth_uid
            for match in sianms.matches.values()
            for pair in match.pairs
        )
        precision = reports[Variant.SIANMS.value].reid["precision"]
        if wrong or precision != 1.0:
            failures.append(
                f"noise-free re-id: {wrong} pairs join different objects, "
                f"reported precision {precision}"
            )
    return failures


def quality_metrics(compare_json: Path) -> dict:
    """The numbers ``sianms compare`` prints, read back from its JSON."""
    data = json.loads(compare_json.read_text(encoding="utf-8"))
    variants = data["variants"]
    sianms = variants[Variant.SIANMS.value]
    frames = sum(v["counts"]["frames"] for v in variants.values())
    errors = sum(len(v["errors"]) for v in variants.values())
    nms_overlap = variants[Variant.ORIGINAL_NMS.value]["metrics_3d"]["overlap"]["mean"]["ap"]
    return {
        "frame_error_ratio": errors / frames,
        "reid_precision": sianms["reid"]["precision"],
        "reid_recall": sianms["reid"]["recall"],
        "ap3d_overlap_gain": 100.0 * (sianms["metrics_3d"]["overlap"]["mean"]["ap"] - nms_overlap),
        "ap3d_all_sianms": sianms["metrics_3d"]["all"]["mean"]["ap"],
    }


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_scene_file(scene_json: Path, reference: Scene, binary: bool) -> list[str]:
    """The written scene equals the generated one bit for bit, both as
    ``load_scene`` returns it and as the raw file bytes read without it.
    Binary clouds are stored as float32, so they are compared after the
    same cast."""
    failures = []
    loaded = load_scene(scene_json)
    raw = json.loads(scene_json.read_text(encoding="utf-8"))
    if len(loaded.frames) != len(reference.frames):
        return [f"{scene_json}: {len(loaded.frames)} frames, expected {len(reference.frames)}"]
    for got, want, raw_frame in zip(loaded.frames, reference.frames, raw["frames"]):
        if got.index != want.index or got.objects != want.objects:
            failures.append(f"{scene_json}: frame {want.index} objects differ")
        single = want.cloud.astype("<f4")
        cloud = single.astype(float) if binary else want.cloud
        if not _same_bits(got.cloud, cloud):
            failures.append(f"{scene_json}: frame {want.index} cloud differs after load")
        lidar = raw_frame["lidar"]
        if binary:
            stored = np.fromfile(scene_json.parent / lidar["bin_file"], dtype="<f4")
            on_disk = _same_bits(stored, single.ravel())
        else:
            on_disk = _same_bits(np.array(lidar["inline"], dtype=float).reshape(-1, 3), cloud)
        if not on_disk:
            failures.append(f"{scene_json}: frame {want.index} cloud differs on disk")
    return failures


def _detection_row(frame: int, det) -> tuple:
    return (
        frame,
        det.camera_id,
        dataclasses.astuple(det.bbox),
        det.class_id,
        det.score,
        None if det.embedding is None else det.embedding.tobytes(),
        det.truth_uid,
    )


def check_detections_file(path: Path, reference: dict) -> list[str]:
    """Detections read back through ``load_detection_records`` equal the
    simulated ones field for field."""
    want = [
        _detection_row(frame, det) for frame in sorted(reference) for det in reference[frame]
    ]
    got = [_detection_row(frame, det) for frame, det in load_detection_records(path)]
    if got != want:
        return [f"{path}: detections differ after the round trip"]
    return []


# -- runs -------------------------------------------------------------------


@dataclasses.dataclass
class PassOutcome:
    failures: list[str]
    digests: dict[str, str]
    quality: dict
    comparison: object = None  # the captured Comparison, for compare passes
    bytes_written: int = 0


class Bench:
    """One workload at one seed: its inputs, passes and checks."""

    def __init__(self, workload: Workload, gen: GenSpec, work_dir: Path):
        self.workload = workload
        self.gen = gen
        self.work_dir = work_dir
        self.spec_path = work_dir / "spec.json"
        self.config_path = work_dir / "config.json"
        self.scene_path = work_dir / "scene" / "scene.json"
        self.reference: Scene | None = None
        self.reference_detections: dict | None = None

    def setup(self) -> None:
        """Build and write the inputs.  For compare workloads that is the
        scene file, written by ``sianms generate``; for generate-io it is the
        spec plus the in-memory scene and detections the checks compare to."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        gen = dataclasses.asdict(self.gen)
        self.spec_path.write_text(
            json.dumps({"rig": dataclasses.asdict(self.workload.rig), "gen": gen}),
            encoding="utf-8",
        )
        self.config_path.write_text(json.dumps({"gen": gen}), encoding="utf-8")
        if self.workload.kind == "compare":
            run_cli(["generate", "--spec", str(self.spec_path), "--out", str(self.scene_path.parent)])
        else:
            self.reference = build_scene(make_rig(self.workload.rig), self.gen)
            self.reference_detections = {
                frame.index: simulate_detections(
                    self.reference.rig, frame.objects, self.gen, frame.index
                )
                for frame in self.reference.frames
            }

    def pass_dir(self, index: int) -> Path:
        out = self.work_dir / f"pass{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def run_pass(self, out: Path) -> None:
        """The timed work of one pass."""
        if self.workload.kind == "compare":
            run_cli([
                "compare", "--scene", str(self.scene_path),
                "--config", str(self.config_path), "--out", str(out),
            ])
            return
        spec, config = str(self.spec_path), str(self.config_path)
        run_cli(["generate", "--spec", spec, "--out", str(out / "inline")])
        run_cli(["generate", "--spec", spec, "--out", str(out / "bin"), "--lidar-bin"])
        for fmt in ("inline", "bin"):
            run_cli([
                "simulate", "--scene", str(out / fmt / "scene.json"), "--config", config,
                "--out", str(out / f"detections_{fmt}.json"),
            ])

    def check_pass(self, out: Path, captured: list) -> PassOutcome:
        if self.workload.kind == "compare":
            if len(captured) != 1:
                return PassOutcome([f"expected one comparison, captured {len(captured)}"], {}, {})
            comparison = captured[0]
            return PassOutcome(
                failures=check_comparison(comparison, self.workload.exact_reid),
                digests={name: sha256(out / name) for name in ("compare.json", "compare.csv")},
                quality=quality_metrics(out / "compare.json"),
                comparison=comparison,
                bytes_written=tree_bytes(out),
            )
        failures = check_scene_file(out / "inline" / "scene.json", self.reference, binary=False)
        failures += check_scene_file(out / "bin" / "scene.json", self.reference, binary=True)
        for fmt in ("inline", "bin"):
            failures += check_detections_file(
                out / f"detections_{fmt}.json", self.reference_detections
            )
        digests = {
            str(p.relative_to(out)): sha256(p) for p in sorted(out.rglob("*")) if p.is_file()
        }
        return PassOutcome(failures, digests, {}, bytes_written=tree_bytes(out))


def check_digests(outcomes: list[PassOutcome]) -> list[str]:
    """Every pass of a run writes the same bytes."""
    first = outcomes[0].digests
    return [
        f"pass {i}: output digests differ from pass 0"
        for i, outcome in enumerate(outcomes[1:], start=1)
        if outcome.digests != first
    ]
