import time

import pytest

from sianms.pipeline import (
    Frame,
    PipelineConfig,
    Scene,
    Variant,
    compare_variants,
    run_pipeline,
)
from sianms.synthgen import (
    GenSpec,
    RigSpec,
    benchmark_gen_spec,
    generate_frame,
    make_rig,
    simulate_detections,
)

import _oracles


def build_scene(rig, gen: GenSpec) -> Scene:
    frames = []
    for index in range(gen.n_frames):
        objects, cloud = generate_frame(rig, gen, index)
        frames.append(Frame(index=index, objects=tuple(objects), cloud=cloud))
    return Scene(rig=rig, frames=tuple(frames))


def simulate_all(scene: Scene, gen: GenSpec) -> dict:
    return {
        frame.index: simulate_detections(scene.rig, frame.objects, gen, frame.index)
        for frame in scene.frames
    }


@pytest.fixture(scope="session", autouse=True)
def kept_gate_references():
    """range_gate_reference's results by input, kept for the session, so
    that the one-frustum fit's and the batched fit's every-frustum tests
    on the noisy benchmark run its loop over windows once per frustum."""
    _oracles.kept_gates = {}
    yield _oracles.kept_gates
    _oracles.kept_gates = None


@pytest.fixture(scope="session")
def bench_rig():
    return make_rig(RigSpec())


@pytest.fixture(scope="session")
def clean_scene(bench_rig):
    return build_scene(bench_rig, benchmark_gen_spec(42))


@pytest.fixture(scope="session")
def clean_config():
    return PipelineConfig(gen=benchmark_gen_spec(42))


@pytest.fixture(scope="session")
def clean_runs(clean_scene, clean_config):
    """Noise-free benchmark results for the two bookend variants."""
    return {
        variant: run_pipeline(clean_scene, variant, clean_config)
        for variant in (Variant.ORIGINAL, Variant.SIANMS)
    }


@pytest.fixture(scope="session")
def noisy_scene(bench_rig):
    return build_scene(bench_rig, benchmark_gen_spec(42, noisy=True))


@pytest.fixture(scope="session")
def noisy_comparison(noisy_scene):
    """All four variants on the noisy benchmark, plus the wall time."""
    cfg = PipelineConfig(gen=benchmark_gen_spec(42, noisy=True))
    started = time.perf_counter()
    comparison = compare_variants(noisy_scene, cfg)
    return comparison, time.perf_counter() - started


@pytest.fixture()
def small_rig():
    return make_rig(RigSpec(n_cameras=4, yaw_spacing_deg=90.0, hfov_deg=100.0))


@pytest.fixture()
def small_gen():
    return GenSpec(seed=7, n_frames=4, objects_per_frame=(3, 5), clutter_points=60)


@pytest.fixture()
def small_scene(small_rig, small_gen):
    return build_scene(small_rig, small_gen)
