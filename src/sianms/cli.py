"""Command-line interface.

Subcommands:
  generate   build a synthetic scene file from a rig/generator spec
  simulate   emit 2D detections for an existing scene file
  run        run one pipeline variant over a scene and write its artifacts
  compare    run all four variants and write side-by-side reports
  eval-reid  score a matches file against labeled detections
  eval-3d    score a 3D boxes file against scene ground truth

Exit codes: 0 success, 1 usage error, 2 schema error in an input file
(or inputs that do not fit each other, such as a scene class without a
dimension prior), 3 runtime failure, which includes a run or compare that
processed none of its frames (its report is still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import groupby
from pathlib import Path

from .matching import MissingEmbedding
from .metrics import METRICS_3D, EvalConfig3D
from .pipeline import (
    REGIONS,
    VARIANT_ORDER,
    Frame,
    Scene,
    Variant,
    check_inputs,
    compare_variants,
    csv_cell,
    csv_table,
    evaluate_boxes,
    frame_truth,
    report_rows,
    run_pipeline,
    text_cell,
)
from .reid_eval import REID_KEYS, REID_RATES, MissingTruth, UnscorablePair, accumulate, evaluate_frame
from .sceneio import (
    SchemaError,
    detections_by_frame,
    load_config,
    load_detection_records,
    load_matches,
    load_boxes,
    load_scene,
    load_spec,
    matches_against_detections,
    write_boxes,
    write_comparison,
    write_detections,
    write_matches,
    write_report,
    write_scene,
)
from .synthgen import generate_frame, make_rig, simulate_detections


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A002 - argparse API
        raise _UsageError(message)


def _flag_parents():
    """Parent parsers (generator overrides, config overrides, output format),
    so each subcommand takes only the flags it reads."""
    gen = _Parser(add_help=False)
    gen.add_argument("--seed", type=int, default=None, help="override generator seed")
    gen.add_argument("--emb-dim", type=int, default=None, help="embedding dimension")
    config = _Parser(add_help=False)
    config.add_argument("--tau", type=float, default=None, help="match distance threshold")
    config.add_argument("--alpha", type=float, default=None, help="contrastive positive margin")
    config.add_argument("--beta", type=float, default=None, help="contrastive negative margin")
    config.add_argument("--nms-iou", type=float, default=None, help="greedy NMS IoU threshold")
    fmt = _Parser(add_help=False)
    choice = fmt.add_mutually_exclusive_group()
    choice.add_argument("--json", dest="format", action="store_const", const="json")
    choice.add_argument("--csv", dest="format", action="store_const", const="csv")
    choice.add_argument("--text", dest="format", action="store_const", const="text")
    fmt.set_defaults(format="text")
    return gen, config, fmt


@cache  # parse_args leaves the parser as it is, so in-process callers share one
def build_parser() -> argparse.ArgumentParser:
    gen, config, fmt = _flag_parents()
    parser = _Parser(prog="sianms", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", parents=[gen], help="generate a synthetic scene")
    p.add_argument("--spec", default=None, help="JSON with 'rig' and 'gen' sections")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lidar-bin", action="store_true", help="write clouds as binary side files")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", parents=[gen], help="emit detections for a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output detections file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", parents=[gen, config, fmt], help="run one variant")
    p.add_argument("--scene", required=True)
    p.add_argument("--variant", required=True, choices=[v.value for v in VARIANT_ORDER])
    p.add_argument("--config", default=None)
    p.add_argument("--detections", default=None, help="bypass the simulator with this file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", parents=[gen, config, fmt], help="run all four variants")
    p.add_argument("--scene", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--detections", default=None, help="bypass the simulator with this file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("eval-reid", parents=[fmt], help="score a matches file")
    p.add_argument("--matches", required=True)
    p.add_argument("--detections", required=True)
    p.set_defaults(func=cmd_eval_reid)

    p = sub.add_parser("eval-3d", parents=[fmt], help="score a 3D boxes file")
    p.add_argument("--pred", required=True, help="boxes file")
    p.add_argument("--gt", required=True, help="scene file holding ground truth")
    p.add_argument("--region", default="all", choices=REGIONS)
    p.set_defaults(func=cmd_eval_3d)
    return parser


# override flag (its argparse dest) -> the dotted config key it sets
_OVERRIDES = {"seed": "gen.seed", "emb_dim": "gen.embed_dim", "tau": "tau",
              "alpha": "loss.alpha", "beta": "loss.beta", "nms_iou": "nms_iou"}


def _overrides(args) -> dict:
    """The value of each override flag given, under its dotted config key."""
    return {
        key: getattr(args, dest)
        for dest, key in _OVERRIDES.items()
        if getattr(args, dest, None) is not None
    }


def _emit(payload: dict, fmt: str, text: str, csv: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        print(csv, end="")
    else:
        print(text, end="")


def cmd_generate(args) -> int:
    rig_spec, gen_spec = load_spec(args.spec, _overrides(args))
    rig = make_rig(rig_spec)
    frames = []
    for index in range(gen_spec.n_frames):
        objects, cloud = generate_frame(rig, gen_spec, index)
        frames.append(Frame(index=index, objects=tuple(objects), cloud=cloud))
    scene = Scene(rig=rig, frames=tuple(frames))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scene_path = out_dir / "scene.json"
    write_scene(scene_path, scene, lidar_bin=args.lidar_bin)
    n_objects = sum(len(f.objects) for f in frames)
    print(f"wrote {scene_path}: {len(frames)} frames, {n_objects} objects")
    return 0


def cmd_simulate(args) -> int:
    scene = load_scene(args.scene, clouds=False)
    cfg = load_config(args.config, _overrides(args))
    dets = {
        frame.index: simulate_detections(scene.rig, frame.objects, cfg.gen, frame.index)
        for frame in scene.frames
    }
    write_detections(args.out, dets)
    total = sum(len(v) for v in dets.values())
    print(f"wrote {args.out}: {total} detections over {len(dets)} frames")
    return 0


def _run_rows(report):
    return report_rows(
        [report],
        REID_KEYS if report.reid is not None else (),
        {region: sorted(report.metrics_3d[region]["per_class"]) for region in REGIONS},
    )


def _key_values(pairs) -> str:
    return "  ".join(f"{key} {text_cell(value)}" for key, value in pairs)


def _report_text(report) -> str:
    lines = [f"variant: {report.variant}  seed: {report.seed}"]
    lines.append(
        "frames: {frames_processed}/{frames}  detections: {detections_2d}  "
        "boxes: {boxes_3d} (merged {merged_boxes})".format(**report.counts)
    )
    rows = _run_rows(report)
    ap = [(r.class_id, r.values[0]) for r in rows if r.section == "ap_2d"]
    if ap:
        lines.append("2D AP: " + _key_values(ap))
    if report.reid is not None:
        rates = [(r.metric, r.values[0]) for r in rows if r.metric in REID_RATES]
        lines.append("re-id: " + _key_values(rates))
    rows_3d = (r for r in rows if r.section == "3d")
    for (region, cls), group in groupby(rows_3d, key=lambda r: (r.region, r.class_id)):
        cells = _key_values((r.metric, r.values[0]) for r in group)
        lines.append(f"3D {region:<8} {cls:<12} " + cells)
    if report.errors:
        lines.append(f"frame errors: {len(report.errors)}")
    return "\n".join(lines) + "\n"


def _pipeline_inputs(args) -> tuple:
    """(scene, config, detections) of run and compare: detections is the
    --detections file by frame, its classes, cameras and frames checked
    against the config and the scene (check_inputs), or None, for the
    pipeline to simulate them."""
    scene = load_scene(args.scene)
    cfg = load_config(args.config, _overrides(args))
    dets = None
    if args.detections is not None:
        dets = detections_by_frame(load_detection_records(args.detections))
        check_inputs(scene, cfg, dets)
    return scene, cfg, dets


def _processed_code(reports) -> int:
    """3, with a message, when the scene has frames and no report processed
    one of them; else 0."""
    if reports[0].counts["frames"] and not any(r.counts["frames_processed"] for r in reports):
        first = reports[0].errors[0]
        print(f"error: no frame processed; frame {first['frame']}: {first['error']}",
              file=sys.stderr)
        return 3
    return 0


def cmd_run(args) -> int:
    scene, cfg, dets = _pipeline_inputs(args)
    result = run_pipeline(scene, Variant(args.variant), cfg, detections=dets)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(out_dir / "report.json", result.report)
    write_boxes(out_dir / "boxes.json", result.boxes)
    write_detections(out_dir / "detections.json", result.detections)
    if result.matches:
        write_matches(out_dir / "matches.json", scene.rig, result.detections, result.matches)
    _emit(
        result.report.to_dict(),
        args.format,
        _report_text(result.report),
        csv_table(["value"], _run_rows(result.report)),
    )
    return _processed_code([result.report])


def cmd_compare(args) -> int:
    scene, cfg, dets = _pipeline_inputs(args)
    comparison = compare_variants(scene, cfg, detections=dets)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = write_comparison(out_dir / "compare", comparison)
    # each file holds exactly what the format prints
    print(paths[args.format].read_text(encoding="utf-8"), end="")
    print(f"wrote {paths['json']}, {paths['csv']}, {paths['text']}", file=sys.stderr)
    return _processed_code(list(comparison.reports.values()))


def cmd_eval_reid(args) -> int:
    payload = load_matches(args.matches)
    records = load_detection_records(args.detections)
    results = matches_against_detections(payload, records)
    by_frame = detections_by_frame(records)
    stats = accumulate(
        evaluate_frame(results[frame], by_frame[frame], payload["adjacency"], frame)
        for frame in sorted(results)
    ).as_dict()
    text = (
        "precision {precision:.4f}\nrecall {recall:.4f}\nf_score {f_score:.4f}\n"
        "tp {tp}  fp {fp}  fn {fn}  tn {tn}\n".format(**stats)
    )
    csv = "metric,value\n" + "".join(
        f"{key},{csv_cell(float(stats[key]))}\n" for key in REID_KEYS
    )
    _emit(stats, args.format, text, csv)
    return 0


def cmd_eval_3d(args) -> int:
    boxes_by_frame = load_boxes(args.pred)
    scene = load_scene(args.gt, clouds=False)
    region = args.region
    # in load_boxes order, which breaks score ties
    boxes = [b for frame_boxes in boxes_by_frame.values() for b in frame_boxes]
    truth = [g for frame in scene.frames for g in frame_truth(scene.rig, frame)[1][region]]
    result = evaluate_boxes(scene.rig, boxes, truth, region, EvalConfig3D())
    text_lines = [f"region: {region}"]
    csv_lines = ["class," + ",".join(METRICS_3D) + ",num_gt,num_pred,num_matched"]
    for cls in sorted(result):
        row = result[cls]
        counts = (row["num_gt"], row["num_pred"], row["num_matched"])
        text_lines.append(
            f"{cls}: " + _key_values((key, row[key]) for key in METRICS_3D)
            + "  (gt {}, pred {}, matched {})".format(*counts)
        )
        csv_lines.append(
            ",".join([cls, *(csv_cell(row[key]) for key in METRICS_3D), *map(str, counts)])
        )
    _emit(
        {"region": region, "classes": result},
        args.format,
        "\n".join(text_lines) + "\n",
        "\n".join(csv_lines) + "\n",
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (SchemaError, UnscorablePair) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (MissingTruth, MissingEmbedding) as exc:
        print(f"schema error: input data incomplete: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps everything to 3
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
