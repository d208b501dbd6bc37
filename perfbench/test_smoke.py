"""Smoke test of the benchmark runner on a tiny spec (two frames).

From the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every declared metric prints by name with its unit, and that
a deliberately corrupted output makes a check fail.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from sianms.matching import MatchedPair  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_FRAMES = 2


def _tiny(name):
    """The named workload on a two-frame scene of its plain spec seed."""
    return dataclasses.replace(workloads.WORKLOADS[name], frames=TINY_FRAMES, detections=0)


def _printed(lines, name, unit) -> bool:
    pattern = rf"{re.escape(name)} = \S+ {re.escape(unit)}"
    return any(re.fullmatch(pattern, line) for line in lines)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, workload, _tiny(workload))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    expected = dict(declared)
    if workload.startswith("compare"):
        expected.update(workloads.QUALITY_UNITS)
    missing = [name for name, unit in expected.items() if not _printed(lines[:-1], name, unit)]
    assert not missing


def test_scene_search_meets_the_detection_count():
    workload = dataclasses.replace(_tiny("compare-ring8"), detections=40)
    gen = workload.spec_for(3)
    assert gen.n_frames == TINY_FRAMES and gen.seed >= 3 * workloads.SEED_STRIDE
    assert gen == workload.spec_for(3)
    rig = workloads.make_rig(workload.rig)
    total = sum(
        len(workloads.simulate_detections(rig, workloads.generate_frame(rig, gen, i)[0], gen, i))
        for i in range(TINY_FRAMES)
    )
    assert total == 40


def _bench(name, tmp_path):
    workload = _tiny(name)
    bench = workloads.Bench(workload, workload.spec_for(3), tmp_path)
    bench.setup()
    return bench


def _run_pass(bench, index):
    out = bench.pass_dir(index)
    with workloads.capture_comparison() as captured:
        bench.run_pass(out)
    return out, captured, bench.check_pass(out, captured)


def test_compare_output_is_what_the_plain_cli_writes(tmp_path):
    bench = _bench("compare-noisy", tmp_path)
    out, _, outcome = _run_pass(bench, 0)
    assert outcome.failures == []
    plain = tmp_path / "plain"
    proc = subprocess.run(
        [sys.executable, "-m", "sianms.cli", "compare", "--scene", str(bench.scene_path),
         "--config", str(bench.config_path), "--out", str(plain)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("compare.json", "compare.csv"):
        assert (plain / name).read_bytes() == (out / name).read_bytes()


def test_corrupted_compare_output_fails_a_check(tmp_path):
    bench = _bench("compare-ring8", tmp_path)
    _, _, first = _run_pass(bench, 0)
    out, captured, second = _run_pass(bench, 1)
    assert first.failures == [] and second.failures == []
    assert workloads.check_digests([first, second]) == []

    with open(out / "compare.csv", "ab") as fh:
        fh.write(b"\n")
    rechecked = bench.check_pass(out, captured)
    assert workloads.check_digests([first, rechecked])

    comparison = captured[0]
    boxes = comparison.results["2d+embedding"].boxes
    frame = next(f for f in sorted(boxes) if boxes[f])
    boxes[frame] = boxes[frame][:-1]
    failures = workloads.check_comparison(comparison, exact_reid=True)
    assert any("different boxes" in f for f in failures)
    assert any("2d+embedding: detections_2d" in f for f in failures)

    matches = comparison.results["sianms"].matches
    match = next(m for m in matches.values() if m.pairs)
    pair = match.pairs[0]
    stranger = next(d for d in match.unmatched if d.truth_uid != pair.a.truth_uid)
    match.pairs[0] = MatchedPair(pair.a, stranger, pair.distance)
    failures = workloads.check_comparison(comparison, exact_reid=True)
    assert any("noise-free re-id" in f for f in failures)


def test_corrupted_scene_and_detections_fail_a_check(tmp_path):
    bench = _bench("generate-io", tmp_path)
    out, _, outcome = _run_pass(bench, 0)
    assert outcome.failures == []

    bin_file = sorted((out / "bin").glob("*.bin"))[0]
    blob = bytearray(bin_file.read_bytes())
    blob[0] ^= 1
    bin_file.write_bytes(bytes(blob))
    failures = workloads.check_scene_file(out / "bin" / "scene.json", bench.reference, binary=True)
    assert any("differs" in f for f in failures)

    records = json.loads((out / "detections_inline.json").read_text())
    records[0]["score"] *= 0.5
    (out / "detections_inline.json").write_text(json.dumps(records))
    failures = workloads.check_detections_file(
        out / "detections_inline.json", bench.reference_detections
    )
    assert failures
