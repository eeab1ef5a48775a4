"""Command-line pipeline: synth -> attribute -> xc -> match -> eval -> train-meta.

Frame store layout; every file the CLI writes appears whole or not at all:

    store/
      scene.json      generator spec (includes the grid)
      model.json      toy detector weights
      manifest.json   planted TP/FP accounting + suggested a_thresh
      preds.jsonl     detections with frame ids (written after the frames)
      gts.jsonl       ground truths with frame ids (written last)
      frames/<id>.xcam   pseudo image per frame (XCAM container)

Exit codes: 0 success; 2 for an XckitError raised by a handler's flag checks, the
library's included (a usage error); 1 for an error raised by the reading and writing
that the handler returns as a call (a data error, naming the file at fault). A
subcommand's flags come from its command line only. `pipeline`'s come from one JSON
config, --config, so its call checks every stage's, naming the config, before writing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict

import numpy as np

from .attribution import AttributionMap, check_steps
from .errors import (
    DegenerateClassBalance, EmptySample, ParseError, ShapeMismatch, TargetOutOfRange, XckitError)
from .io_formats import (
    atomic_write,
    json_typed,
    load_json,
    load_model,
    naming,
    read_detections,
    read_feature_csv,
    read_ground_truths,
    read_xcam,
    save_model,
    write_detections,
    write_feature_csv,
    write_ground_truths,
    write_jsonl,
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
    check_frame_count,
    frame_attributions,
    generate_benchmark,
    load_scene_spec,
    output_index,
    save_scene_spec,
    scene_spec_from_dict,
)
from .xc import XcConfig

EVAL_FEATURES = (*DEFAULT_FEATURES, "n_points", "random")


DEFAULT_IOU_SPEC = ",".join(f"{label}={t}" for label, t in DEFAULT_IOU_THRESH.items())


def _parse_iou_spec(text: str) -> Dict[str, float]:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise XckitError(f"--iou entries must look like label=thresh, got {part!r}")
        label, _, val = part.partition("=")
        try:
            out[label.strip()] = float(val)
        except ValueError:
            raise XckitError(f"--iou threshold for {label.strip()!r} is not a number")
    return out


def _typed(key: str, value, kind=str, choices=None):
    """``value``, which must have the JSON type of a flag of type ``kind``; an int
    may stand for a float."""
    try:
        value = json_typed(value, kind)
    except TypeError as e:
        raise XckitError(f"{key} {e}")
    if choices is not None and value not in choices:
        raise XckitError(f"{key} must be one of {list(choices)}, got {value!r}")
    return value


def _stage_args(command: str, values: dict) -> argparse.Namespace:
    """The subcommand's flag defaults with a pipeline section's ``values`` on top, each
    checked against its flag's ``type`` and ``choices`` (None only where None is the default)."""
    stage = build_parser().stages[command]
    flags = {a.dest: a for a in stage._actions if a.dest != "help"}
    args = argparse.Namespace(**{dest: a.default for dest, a in flags.items()})
    for key, value in values.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise XckitError(f"config key {key!r} is not a flag of {command}")
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
    with atomic_write(os.path.join(out_dir, "manifest.json")) as f:
        json.dump(manifest, f, indent=2)
    fids = [f"{i:06d}" for i in range(len(frames))]
    for fid, frame in zip(fids, frames):
        pseudo = AttributionMap(values=frame.pseudo_image.astype(np.float64), method="pseudo-image")
        write_xcam(os.path.join(out_dir, "frames", f"{fid}.xcam"), pseudo)
    # the streams go last, so a store cut short lacks one, and its readers name it
    write_detections(os.path.join(out_dir, "preds.jsonl"),
                     [(fid, p) for fid, frame in zip(fids, frames) for p in frame.preds])
    write_ground_truths(os.path.join(out_dir, "gts.jsonl"),
                        [(fid, g) for fid, frame in zip(fids, frames) for g in frame.gts])


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
    shape = (spec.grid.height, spec.grid.width, 4)  # three class channels, then inhibition
    for fid in fids:
        pseudo = read_xcam(os.path.join(frames_dir, f"{fid}.xcam"), shape).values
        out[fid] = (pseudo.astype(np.float32), *by_frame[fid])
    return spec, fids, out


# --- subcommands: each checks its flags, then returns its reading and writing as a call ---

def _split(text: str) -> list:
    return [t.strip() for t in text.split(",") if t.strip()]


def _emit(text: str, out) -> None:
    """``text`` to the file ``out`` when one is given, then to stdout."""
    if out:
        with atomic_write(out) as f:
            f.write(text + "\n")
    print(text)


def _cmd_synth(args):
    check_frame_count(args.frames)
    SceneSpec(rng_seed=args.seed or 0)  # checks the seed before the spec is read

    def run():
        spec = load_scene_spec(args.spec) if args.spec else SceneSpec()
        if args.seed is not None:
            spec = replace(spec, rng_seed=args.seed)
        with naming(args.spec or "built-in scene spec"):  # a spec can pass its checks, then fail
            frames, manifest = generate_benchmark(spec, args.frames)
        write_frame_store(args.out, spec, frames, manifest)
        print(
            f"wrote {len(frames)} frames, "
            f"{sum(manifest['tp_counts'].values())} tp / "
            f"{sum(manifest['fp_counts'].values())} fp predictions -> {args.out}"
        )
    return run


def _cmd_attribute(args):
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise XckitError("--jobs must be >= 1")
    if args.method != "backprop":  # backprop takes no path steps
        check_steps(args.steps)

    def run():
        spec, fids, store = read_frame_store(args.frames)
        path = args.model or os.path.join(args.frames, "model.json")
        model, shape = load_model(path), (spec.grid.height, spec.grid.width, 4)
        if model.input_shape != shape:
            raise ShapeMismatch(f"{path}: model input {model.input_shape} != frame shape {shape}")
        for fid in fids:  # every prediction's output, before anything is written
            for pred in store[fid][1]:
                if pred.anchor_index is None:
                    raise XckitError(f"{path}: frame {fid}: prediction lacks anchor_index; "
                                     "cannot pick its output")
                if not 0 <= (t := output_index(pred.anchor_index, pred.label)) < model.n_outputs:
                    raise TargetOutOfRange(f"{path}: frame {fid}: {pred.label} output {t} "
                                           f"outside the model's [0, {model.n_outputs})")
        os.makedirs(args.out, exist_ok=True)

        def one_frame(fid):
            pseudo, preds, gts = store[fid]
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
            maps = [read_xcam(os.path.join(args.attribs, f"{fid}_{i:03d}.xcam"), pseudo.shape)
                    for i in range(len(preds))]
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
        outcomes = [(fid, categorize(*by_frame[fid], cfg)) for fid in sorted(by_frame)]
        rows = [{"frame_id": fid, "index": i, "tag": tag, "matched_gt": gt_idx}
                for fid, outcome in outcomes
                for i, (tag, gt_idx) in enumerate(zip(outcome.tags, outcome.matched_gt))]
        write_jsonl(args.out, rows)
        tags = [row["tag"] for row in rows]
        print(f"tagged {len(rows)} predictions ({tags.count('TP')} TP, {tags.count('FP')} FP, "
              f"{tags.count('Ignore')} Ignore) -> {args.out}")
    return run


def _cmd_eval(args):
    if args.seed < 0:  # numpy's generators take no negative seed
        raise XckitError(f"seed must be a non-negative integer, got {args.seed}")
    keys = _split(args.group_by)
    split_groups([], keys)  # checks the keys

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
                except (DegenerateClassBalance, EmptySample) as e:
                    # a group can be single-class or empty; skip its row and say why
                    print(f"eval: skipped feature {feature!r} in group {name or 'all'!r}: "
                          f"{type(e).__name__}: {e}", file=sys.stderr)
        _emit(render_table(reports), args.out)
    return run


def _cmd_train_meta(args):
    subset = _split(args.subset) if args.subset else list(DEFAULT_FEATURES)
    bad = set(subset) - set(DEFAULT_FEATURES)
    if bad:
        raise XckitError(f"unknown meta features: {sorted(bad)}")

    def run():
        rows = read_feature_csv(args.features)
        with naming(args.features):  # too few rows or one class only: a fault of the file
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
    """Every stage from one config: each section holds its stage's flags (on Namespaces
    from _stage_args); only jobs (1) and a_thresh (the benchmark's, which the manifest
    records) differ from the flag defaults."""

    def run():
        cfg = load_json(args.config)  # its errors name the file already

        def section(name):
            sec = cfg.get(name, {})
            if not isinstance(sec, dict):
                raise XckitError(f"pipeline config section {name!r} must be a JSON object")
            return dict(sec)

        with naming(args.config):
            if not isinstance(cfg, dict):
                raise XckitError("the config must hold a JSON object")
            unknown = sorted(set(cfg) - {"out", "n_frames", "scene", "attribute", "xc", "eval",
                                         "train_meta"})
            if unknown:
                raise XckitError(f"unknown pipeline config key {unknown[0]!r}")
            out_dir = cfg.get("out")
            if not out_dir or not isinstance(out_dir, str):
                raise XckitError("pipeline config needs an 'out' directory")
            spec = scene_spec_from_dict(section("scene"))
            n_frames = _typed("n_frames", cfg.get("n_frames", 20), int)
            store_dir = os.path.join(out_dir, "store")
            attribs_dir = os.path.join(out_dir, "attribs")
            features_csv = os.path.join(out_dir, "features.csv")
            xc_args = _stage_args("xc", {
                "a_thresh": BENCHMARK_A_THRESH, **section("xc"),
                "frames": store_dir, "attribs": attribs_dir, "out": features_csv})
            for label, n in spec.n_objects.items():  # xc and match tag every class placed
                if n and label not in _parse_iou_spec(xc_args.iou):
                    raise XckitError(f"xc.iou has no threshold for class {label!r}")
            tm = section("train_meta")
            enabled = tm.pop("enabled", True)
            if not isinstance(enabled, bool):
                raise XckitError(f"train_meta.enabled must be true or false, got {enabled!r}")
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
                    **tm, "features": features_csv,
                    "out": os.path.join(out_dir, "meta_report.txt")})))
            frames, manifest = generate_benchmark(spec, n_frames)  # checks the count first
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
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_pipeline)

    parser.stages = sub.choices  # subcommand name -> its parser, for _stage_args
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = args.func(args)  # the flag checks: a fault here is in the command line
    except XckitError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    try:
        run()
        return 0
    except (ParseError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 1
    except XckitError as e:
        print(f"data error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
