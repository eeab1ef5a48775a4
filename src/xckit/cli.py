"""Command-line pipeline: synth -> attribute -> xc -> match -> eval -> train-meta.

Artifact layout for a frame store (written by `synth`, read downstream):

    store/
      scene.json      generator spec (includes the grid)
      model.json      toy detector weights
      manifest.json   planted TP/FP accounting + suggested a_thresh
      preds.jsonl     detections with frame ids
      gts.jsonl       ground truths with frame ids
      frames/<id>.xcam   pseudo image per frame (XCAM container)

Exit codes: 0 success, 2 usage problems, 1 data problems (bad files, failed
invariants). A JSON config given via --config overrides any flag of that
subcommand; XCKIT_JOBS is the fallback for --jobs. Each handler checks its
flags, then returns its reading and writing as a call. `pipeline` runs every
stage's checks, on Namespaces built by _stage_args, before it writes anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from .attribution import AttributionMap
from .errors import ParseError, XckitError, ZeroSteps
from .io_formats import (
    json_typed,
    load_json,
    load_model,
    read_detections,
    read_feature_csv,
    read_ground_truths,
    read_xcam,
    save_model,
    write_detections,
    write_feature_csv,
    write_ground_truths,
    write_xcam,
)
from .matching import DEFAULT_IOU_THRESH, MatchConfig, categorize
from .meta import (
    DEFAULT_FEATURES,
    FOLDS,
    REPEATS,
    build_feature_dataset,
    cross_validate,
    split_groups,
)
from .metrics import evaluate_feature, render_table
from .synth import (
    BENCHMARK_A_THRESH,
    SceneSpec,
    SyntheticFrame,
    build_toy_model,
    frame_attributions,
    generate_benchmark,
    load_scene_spec,
    save_scene_spec,
    scene_spec_from_dict,
)
from .xc import XcConfig

EVAL_FEATURES = (*DEFAULT_FEATURES, "n_points", "random")


DEFAULT_IOU_SPEC = ",".join(f"{label}={t}" for label, t in DEFAULT_IOU_THRESH.items())


class UsageError(Exception):
    pass


def _parse_iou_spec(text: str) -> Dict[str, float]:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise UsageError(f"--iou entries must look like label=thresh, got {part!r}")
        label, _, val = part.partition("=")
        try:
            out[label.strip()] = float(val)
        except ValueError:
            raise UsageError(f"--iou threshold for {label.strip()!r} is not a number")
    return out


def _resolve_jobs(value: Optional[int]) -> int:
    if value is None:
        env = os.environ.get("XCKIT_JOBS")
        if env is not None:
            try:
                value = int(env)
            except ValueError:
                raise UsageError(f"XCKIT_JOBS must be an integer, got {env!r}")
        else:
            value = os.cpu_count() or 1
    if value < 1:
        raise UsageError("--jobs must be >= 1")
    return value


def _load_config(path) -> dict:
    cfg = load_json(path)
    if not isinstance(cfg, dict):
        raise UsageError(f"{path} must hold a JSON object")
    return cfg


def _typed(key: str, value, kind=str, choices=None):
    """``value`` as argparse stores it for a flag of type ``kind``: a string is
    converted, an int may stand for a float, anything else must have the type."""
    if isinstance(value, str):
        try:
            value = kind(value)
        except ValueError:
            raise UsageError(f"{key}: invalid {kind.__name__} value {value!r}")
    try:
        value = json_typed(value, kind)
    except TypeError as e:
        raise UsageError(f"{key} {e}")
    if choices is not None and value not in choices:
        raise UsageError(f"{key} must be one of {list(choices)}, got {value!r}")
    return value


def _stage_args(command: str, values: dict, args=None) -> argparse.Namespace:
    """``args`` (by default the subcommand's flag defaults) with ``values`` on top,
    each checked against its flag's ``type`` and ``choices`` (None only where
    None is the default). Config files and `pipeline` both come through here."""
    stage = build_parser().stages[command]
    flags = {a.dest: a for a in stage._actions if a.dest != "help"}
    if args is None:
        args = argparse.Namespace(**{dest: a.default for dest, a in flags.items()})
    for key, value in values.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise UsageError(f"config key {key!r} is not a flag of {command}")
        if not (value is None and flag.default is None and not flag.required):
            value = _typed(key, value, flag.type or str, flag.choices)
        setattr(args, flag.dest, value)
    return args


# --- frame store helpers ---

def write_frame_store(out_dir, spec, frames, manifest) -> None:
    os.makedirs(os.path.join(out_dir, "frames"), exist_ok=True)
    save_scene_spec(os.path.join(out_dir, "scene.json"), spec)
    model = frames[0].model if frames else build_toy_model(spec.grid)
    save_model(os.path.join(out_dir, "model.json"), model)
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    det_records = []
    gt_records = []
    for i, frame in enumerate(frames):
        fid = f"{i:06d}"
        det_records.extend((fid, pred) for pred in frame.preds)
        gt_records.extend((fid, gt) for gt in frame.gts)
        write_xcam(
            os.path.join(out_dir, "frames", f"{fid}.xcam"),
            AttributionMap(values=frame.pseudo_image.astype(np.float64), method="pseudo-image"),
        )
    write_detections(os.path.join(out_dir, "preds.jsonl"), det_records)
    write_ground_truths(os.path.join(out_dir, "gts.jsonl"), gt_records)


def _records_by_frame(preds_path, gts_path) -> Dict[str, tuple]:
    """{frame id: (preds, gts)} from a detection stream and a ground-truth stream."""
    by_frame: Dict[str, tuple] = {}
    for fid, pred in read_detections(preds_path):
        by_frame.setdefault(fid, ([], []))[0].append(pred)
    for fid, gt in read_ground_truths(gts_path):
        by_frame.setdefault(fid, ([], []))[1].append(gt)
    return by_frame


def read_frame_store(store_dir):
    """Returns (spec, ordered frame ids, {fid: (pseudo, preds, gts)})."""
    spec = load_scene_spec(os.path.join(store_dir, "scene.json"))
    by_frame = _records_by_frame(
        os.path.join(store_dir, "preds.jsonl"), os.path.join(store_dir, "gts.jsonl")
    )
    frames_dir = os.path.join(store_dir, "frames")
    for name in os.listdir(frames_dir):
        if name.endswith(".xcam"):
            by_frame.setdefault(name[:-5], ([], []))
    fids = sorted(by_frame)
    out = {}
    for fid in fids:
        pseudo_path = os.path.join(frames_dir, f"{fid}.xcam")
        if not os.path.exists(pseudo_path):
            raise XckitError(f"frame {fid} has records but no pseudo image")
        pseudo = read_xcam(pseudo_path).values.astype(np.float32)
        out[fid] = (pseudo, *by_frame[fid])
    return spec, fids, out


# --- subcommands: each checks its flags, then returns its reading and writing as a call ---

def _split(text: str) -> list:
    return [t.strip() for t in text.split(",") if t.strip()]


def _emit(text: str, out) -> None:
    """``text`` to the file ``out`` when one is given, then to stdout."""
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    print(text)


def _cmd_synth(args):
    def run():
        spec = load_scene_spec(args.spec) if args.spec else SceneSpec()
        if args.seed is not None:
            spec = replace(spec, rng_seed=args.seed)
        frames, manifest = generate_benchmark(spec, args.frames)
        write_frame_store(args.out, spec, frames, manifest)
        print(
            f"wrote {len(frames)} frames, "
            f"{sum(manifest['tp_counts'].values())} tp / "
            f"{sum(manifest['fp_counts'].values())} fp predictions -> {args.out}"
        )
    return run


def _cmd_attribute(args):
    jobs = _resolve_jobs(args.jobs)
    if args.method != "backprop" and args.steps < 1:  # backprop takes no path steps
        raise ZeroSteps(f"steps must be >= 1, got {args.steps}")

    def run():
        spec, fids, store = read_frame_store(args.frames)
        model = load_model(args.model or os.path.join(args.frames, "model.json"))
        os.makedirs(args.out, exist_ok=True)

        def one_frame(fid):
            pseudo, preds, gts = store[fid]
            for pred in preds:
                if pred.anchor_index is None:
                    raise XckitError(
                        f"frame {fid}: prediction lacks anchor_index; cannot pick its output"
                    )
            frame = SyntheticFrame(pseudo_image=pseudo, gts=gts, preds=preds, model=model)
            return frame_attributions(frame, method=args.method, steps=args.steps)

        n = 0
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_frame = pool.map(one_frame, fids) if jobs > 1 else map(one_frame, fids)
            # written frame by frame, so only the frames in flight are held in memory
            for fid, maps in zip(fids, per_frame):
                for i, m in enumerate(maps):
                    write_xcam(os.path.join(args.out, f"{fid}_{i:03d}.xcam"), m)
                    n += 1
        print(f"wrote {n} attribution maps ({args.method}) -> {args.out}")
    return run


def _cmd_xc(args):
    xc_cfg = XcConfig(a_thresh=args.a_thresh, margin_m=args.margin)
    match_cfg = MatchConfig(score_thresh=args.score_thresh, iou_thresh=_parse_iou_spec(args.iou))

    def run():
        spec, fids, store = read_frame_store(args.frames)

        def triple(fid):
            pseudo, preds, gts = store[fid]
            maps = []
            for i in range(len(preds)):
                path = os.path.join(args.attribs, f"{fid}_{i:03d}.xcam")
                if not os.path.exists(path):
                    raise XckitError(f"missing attribution map {path}")
                maps.append(read_xcam(path))
            return preds, maps, gts

        # frames are read as they are scored, so one frame's maps are held at a time
        rows = build_feature_dataset(map(triple, fids), spec.grid, xc_cfg=xc_cfg,
                                     match_cfg=match_cfg)
        write_feature_csv(args.out, rows)
        print(f"wrote {len(rows)} feature rows -> {args.out}")
    return run


def _cmd_match(args):
    cfg = MatchConfig(score_thresh=args.score_thresh, iou_thresh=_parse_iou_spec(args.iou))

    def run():
        by_frame = _records_by_frame(args.preds, args.gts)
        counts = {"TP": 0, "FP": 0, "Ignore": 0}
        with open(args.out, "w") as f:
            for fid in sorted(by_frame):
                outcome = categorize(*by_frame[fid], cfg)
                for i, (tag, gt_idx) in enumerate(zip(outcome.tags, outcome.matched_gt)):
                    counts[tag] += 1
                    row = {"frame_id": fid, "index": i, "tag": tag, "matched_gt": gt_idx}
                    f.write(json.dumps(row) + "\n")
        print(
            f"tagged {sum(counts.values())} predictions "
            f"({counts['TP']} TP, {counts['FP']} FP, {counts['Ignore']} Ignore) -> {args.out}"
        )
    return run


def _cmd_eval(args):
    if args.seed < 0:  # numpy's generators take no negative seed
        raise UsageError(f"seed must be a non-negative integer, got {args.seed}")
    keys = _split(args.group_by)
    try:
        split_groups([], keys)  # checks the keys
    except XckitError as e:
        raise UsageError(f"--group-by: {e}")

    def run():
        rows = read_feature_csv(args.features)
        groups = split_groups(rows, keys)
        reports = []
        for feature in EVAL_FEATURES:
            for name, members in groups:
                try:
                    reports.append(
                        evaluate_feature(members, feature, group_name=name, rng_seed=args.seed)
                    )
                except XckitError as e:
                    # a group can be single-class or empty; skip its row and say why
                    print(f"eval: skipped feature {feature!r} in group {name or 'all'!r}: "
                          f"{type(e).__name__}: {e}", file=sys.stderr)
        _emit(render_table(reports), args.out)
    return run


def _cmd_train_meta(args):
    subset = _split(args.subset) if args.subset else list(DEFAULT_FEATURES)
    bad = set(subset) - set(DEFAULT_FEATURES)
    if bad:
        raise UsageError(f"unknown meta features: {sorted(bad)}")

    def run():
        rows = read_feature_csv(args.features)
        report = cross_validate(rows, feature_subset=subset, rng_seed=args.seed)
        _emit("\n".join([
            f"features: {report.feature}",
            f"rows: {len(rows)} ({report.n_pos} tp / {report.n_neg} fp)",
            f"protocol: {REPEATS}x{FOLDS}-fold cross-validation",
            f"auroc: {report.auroc:.4f}",
            f"aupr: {report.aupr:.4f}",
            f"aupr_op: {report.aupr_op:.4f}",
        ]), args.out)
    return run


def _cmd_pipeline(args):
    """Every stage from one config: each section holds its stage's flags, and every
    stage's checks run before anything is written; only jobs (1) and a_thresh (the
    benchmark's, which the manifest records) differ from the flag defaults."""
    cfg = _load_config(args.config)
    unknown = sorted(set(cfg) - {"out", "n_frames", "scene", "attribute", "xc", "eval",
                                 "train_meta"})
    if unknown:
        raise UsageError(f"unknown pipeline config key {unknown[0]!r}")
    out_dir = cfg.get("out")
    if not out_dir or not isinstance(out_dir, str):
        raise UsageError("pipeline config needs an 'out' directory")

    def section(name):
        sec = cfg.get(name, {})
        if not isinstance(sec, dict):
            raise UsageError(f"pipeline config section {name!r} must be a JSON object")
        return dict(sec)

    spec = scene_spec_from_dict(section("scene"))
    n_frames = _typed("n_frames", cfg.get("n_frames", 20), int)
    store_dir = os.path.join(out_dir, "store")
    attribs_dir = os.path.join(out_dir, "attribs")
    features_csv = os.path.join(out_dir, "features.csv")
    xc_args = _stage_args("xc", {
        "a_thresh": BENCHMARK_A_THRESH, **section("xc"),
        "frames": store_dir, "attribs": attribs_dir, "out": features_csv})
    tm = section("train_meta")
    enabled = tm.pop("enabled", True)
    if not isinstance(enabled, bool):
        raise UsageError(f"train_meta.enabled must be true or false, got {enabled!r}")
    if isinstance(tm.get("subset"), list):
        tm["subset"] = ",".join(map(str, tm["subset"]))
    stages = [
        _cmd_attribute(_stage_args("attribute", {
            "jobs": 1, **section("attribute"), "frames": store_dir, "out": attribs_dir})),
        _cmd_xc(xc_args),
        _cmd_match(_stage_args("match", {
            "score_thresh": xc_args.score_thresh, "iou": xc_args.iou,
            "preds": os.path.join(store_dir, "preds.jsonl"),
            "gts": os.path.join(store_dir, "gts.jsonl"),
            "out": os.path.join(out_dir, "tags.jsonl")})),
        _cmd_eval(_stage_args("eval", {
            **section("eval"), "features": features_csv,
            "out": os.path.join(out_dir, "table.txt")})),
    ]
    if enabled:
        stages.append(_cmd_train_meta(_stage_args("train-meta", {
            **tm, "features": features_csv, "out": os.path.join(out_dir, "meta_report.txt")})))

    def run():
        frames, manifest = generate_benchmark(spec, n_frames)
        os.makedirs(out_dir, exist_ok=True)
        write_frame_store(store_dir, spec, frames, manifest)
        for stage in stages:
            stage()
        print(f"pipeline complete -> {out_dir}")
    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xckit",
        description="attribution-concentration scoring for grid-input detectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic frame store")
    p.add_argument("--spec", help="scene spec JSON (defaults baked in when omitted)")
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--seed", type=int, default=None, help="override the spec's rng_seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("attribute", help="attribution map per prediction")
    p.add_argument("--model", help="model JSON (default: the store's model.json)")
    p.add_argument("--frames", required=True, help="frame store directory")
    p.add_argument("--method", choices=["backprop", "ig", "ig-nomult"], default="backprop")
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_attribute)

    p = sub.add_parser("xc", help="concentration scores -> feature CSV")
    p.add_argument("--frames", required=True)
    p.add_argument("--attribs", required=True)
    p.add_argument("--a-thresh", type=float, default=0.1)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--score-thresh", type=float, default=0.1)
    p.add_argument("--iou", default=DEFAULT_IOU_SPEC,
                   help="per-class IoU thresholds, e.g. car=0.5,pedestrian=0.25")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_xc)

    p = sub.add_parser("match", help="tag predictions TP/FP/Ignore")
    p.add_argument("--preds", required=True)
    p.add_argument("--gts", required=True)
    p.add_argument("--score-thresh", type=float, default=0.1)
    p.add_argument("--iou", default=DEFAULT_IOU_SPEC)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("eval", help="threshold-independent metrics table")
    p.add_argument("--features", required=True)
    p.add_argument("--group-by", default="",
                   help="comma list of class, points100; empty = overall only")
    p.add_argument("--seed", type=int, default=0, help="seed for the random baseline")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("train-meta", help="cross-validated meta-classifier report")
    p.add_argument("--features", required=True)
    p.add_argument("--subset", default=None,
                   help="comma list of meta features (default: all five)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_train_meta)

    p = sub.add_parser("pipeline", help="run every stage from one config")
    p.set_defaults(func=_cmd_pipeline)
    for name, p in sub.choices.items():
        p.add_argument("--config", required=name == "pipeline")

    parser.stages = sub.choices  # subcommand name -> its parser, for _stage_args
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "pipeline" and args.config:
            args = _stage_args(args.command, _load_config(args.config), args)
        args.func(args)()
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 1
    except XckitError as e:
        print(f"data error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
