"""Child process of the benchmark: one set-up, the pipeline loop, or the traced run.

    python3 perfbench/child.py setup    '{"workload", "seed", "dir"}'
    python3 perfbench/child.py pipeline '{"workload", "seed", "dir", "out", "seconds", "deadline_s"}'
    python3 perfbench/child.py traced   '{"workload", "seed", "dir", "out", "trace_dir"}'

run.py starts these with PYTHONPATH pointing at the checkout's ``src`` and
BLAS pinned to one thread. Each prints one JSON object as its last stdout
line. xckit is imported inside the modes, so ``setup`` times the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace

import checks
from workloads import DEFAULT_SEED, WORKLOADS

STAGES = ("attribute", "xc", "match", "eval", "train_meta")
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
MIN_PASSES = 2


# --- set-up: synthesize the frame store ---

def synthesize(workload, seed: int, store: str, tracer=None) -> dict:
    """Write the workload's frame store; returns timings, counts and planted kinds.

    Frames use the SeedSequence children that ``generate_benchmark`` uses,
    but are generated one at a time so a PlacementFailure drops one frame
    and is counted instead of aborting the store.
    """
    import numpy as np
    from xckit.cli import write_frame_store
    from xckit.errors import PlacementFailure
    from xckit.synth import (BENCHMARK_A_THRESH, CLASSES, SceneSpec, build_toy_model,
                             generate_frame)

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext({"counts": {}}))
    t0 = time.perf_counter()
    spec = SceneSpec(rng_seed=int(seed))
    model = build_toy_model(spec.grid)
    frames, failed = [], 0
    for child in np.random.SeedSequence(spec.rng_seed).generate_state(workload.frames, np.uint64):
        with span("synth.frame") as rec:
            try:
                frames.append(generate_frame(replace(spec, rng_seed=int(child)), model=model))
            except PlacementFailure:
                failed += 1
                rec["counts"]["failed"] = 1
    # generate_frame places TPs first, one ground truth each, then FPs
    planted = [["TP"] * len(f.gts) + ["FP"] * (len(f.preds) - len(f.gts)) for f in frames]
    tp_counts = {c: 0 for c in CLASSES}
    fp_counts = {c: 0 for c in CLASSES}
    for f, kinds in zip(frames, planted):
        for pred, kind in zip(f.preds, kinds):
            (tp_counts if kind == "TP" else fp_counts)[pred.label] += 1
    n_preds = sum(len(k) for k in planted)
    manifest = {
        "n_frames": len(frames),
        "tp_counts": tp_counts,
        "fp_counts": fp_counts,
        "fp_fraction": sum(fp_counts.values()) / max(n_preds, 1),
        "a_thresh": BENCHMARK_A_THRESH,
        "points_correlation": spec.points_correlation,
    }
    t1 = time.perf_counter()
    write_frame_store(store, spec, frames, manifest)
    t2 = time.perf_counter()
    return {
        "synth_s": t1 - t0,
        "write_s": t2 - t1,
        "frames_attempted": workload.frames,
        "frames_failed": failed,
        "preds": n_preds,
        "a_thresh": BENCHMARK_A_THRESH,
        "planted": {f"{i:06d}": kinds for i, kinds in enumerate(planted)},
    }


def mode_setup(args: dict) -> dict:
    t0 = time.perf_counter()
    import xckit  # noqa: F401  (set-up time includes importing the package)
    import xckit.cli  # noqa: F401
    t_import = time.perf_counter() - t0
    store = os.path.join(args["dir"], "store")
    out = synthesize(WORKLOADS[args["workload"]], args["seed"], store)
    out["setup_s"] = time.perf_counter() - t0
    out["import_s"] = t_import
    with open(os.path.join(args["dir"], "planted.json"), "w") as f:
        json.dump({"planted": out.pop("planted"), "preds": out["preds"],
                   "a_thresh": out["a_thresh"]}, f)
    return out


# --- one pipeline pass: attribute -> xc -> match -> eval -> train-meta ---

def pipeline_argv(workload, store: str, out: str, a_thresh: float) -> list:
    attribs = os.path.join(out, "attribs")
    features = os.path.join(out, "features.csv")
    return [
        ("attribute", ["attribute", "--frames", store, "--out", attribs,
                       "--method", workload.method, "--steps", str(workload.steps),
                       "--jobs", "1"]),
        ("xc", ["xc", "--frames", store, "--attribs", attribs,
                "--a-thresh", repr(a_thresh), "--margin", "0.2", "--out", features]),
        ("match", ["match", "--preds", os.path.join(store, "preds.jsonl"),
                   "--gts", os.path.join(store, "gts.jsonl"),
                   "--out", os.path.join(out, "tags.jsonl")]),
        ("eval", ["eval", "--features", features, "--group-by", workload.group_by,
                  "--seed", "0", "--out", os.path.join(out, "table.txt")]),
        ("train_meta", ["train-meta", "--features", features, "--seed", "0",
                        "--out", os.path.join(out, "meta_report.txt")]),
    ]


def run_pass(workload, store: str, out: str, a_thresh: float, tracer=None) -> dict:
    from xckit.cli import main

    if os.path.exists(out):
        shutil.rmtree(out)
    os.makedirs(out)
    stage_s, rcs = {}, {}
    sink = io.StringIO()
    t0 = time.perf_counter()
    for stage, argv in pipeline_argv(workload, store, out, a_thresh):
        span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        t = time.perf_counter()
        with span, contextlib.redirect_stdout(sink):
            rcs[stage] = main(argv)
        stage_s[stage] = time.perf_counter() - t
        if rcs[stage]:
            break
    return {"pipeline_s": time.perf_counter() - t0, "stage_s": stage_s, "rc": rcs}


def read_outputs(out: str) -> dict:
    def text(name):
        path = os.path.join(out, name)
        if not os.path.exists(path):
            return ""
        with open(path) as f:
            return f.read()

    return {"features_csv": text("features.csv"), "table": text("table.txt"),
            "meta_report": text("meta_report.txt")}


def n_eval_groups(group_by: str, labels) -> int:
    tokens = {t.strip() for t in group_by.split(",") if t.strip()}
    per_class = 2 if "points100" in tokens else 1
    if "class" in tokens:
        return 1 + per_class * len(labels)
    return 1 + (2 if "points100" in tokens else 0)


def pass_ops(workload, out: str, passed: dict, n_preds: int) -> dict:
    """Attempted/failed counts of one pass: maps, feature rows, eval groups, CV call."""
    from xckit.cli import EVAL_FEATURES

    attribs = os.path.join(out, "attribs")
    n_maps = len(os.listdir(attribs)) if os.path.isdir(attribs) else 0
    tags_path = os.path.join(out, "tags.jsonl")
    tags = checks.read_tags(tags_path) if os.path.exists(tags_path) else {}
    rows = checks.feature_rows(os.path.join(out, "features.csv")) \
        if os.path.exists(os.path.join(out, "features.csv")) else []
    kept = sum(1 for t in tags.values() if t != "Ignore")
    labels = {r[11] for r in rows[1:]}
    groups = len(EVAL_FEATURES) * n_eval_groups(workload.group_by, labels)
    table = passed["table"].strip().splitlines()
    evaluated = max(len(table) - 2, 0)
    cv_ok = passed["meta_report"].startswith("features:") and not passed["rc"].get("train_meta")
    return {
        "maps": (n_preds, n_preds - n_maps),
        "rows": (kept, kept - max(len(rows) - 1, 0)),
        "eval_groups": (groups, groups - evaluated),
        "cv_calls": (1, 0 if cv_ok else 1),
        "stage_failures": sum(1 for rc in passed["rc"].values() if rc),
        "tags": tags,
        "rows_list": rows,
    }


def quality(outputs: dict) -> dict:
    """meta AUPR from the report; lowest overall AUROC of the four XC features."""
    aupr = None
    for line in outputs["meta_report"].splitlines():
        if line.startswith("aupr:"):
            aupr = float(line.split()[1])
    aurocs = []
    for line in outputs["table"].splitlines()[2:]:
        cells = line.split()
        if cells[0] in ("xc_s_plus", "xc_c_plus", "xc_s_minus", "xc_c_minus") and cells[1] == "all":
            aurocs.append(float(cells[4]))
    return {"meta_aupr": aupr, "xc_auroc_min": min(aurocs) if len(aurocs) == 4 else None}


def summarize(workload, args, planted: dict, outputs: list, ops: dict) -> dict:
    """Check the outputs (see checks.py) and pull out rows and quality metrics."""
    store, out = os.path.join(args["dir"], "store"), args["out"]
    n_maps = ops["maps"][0] - ops["maps"][1]
    results = checks.check_counts(planted["preds"], n_maps, ops["tags"], ops["rows_list"])
    results.append(checks.check_planted(planted["planted"], ops["tags"], ops["rows_list"]))
    if workload.method == "ig":
        results.append(checks.check_ig_completeness(store, os.path.join(out, "attribs")))
    if args["seed"] == DEFAULT_SEED:
        with open(os.path.join(REFS_DIR, f"{workload.name}.json")) as f:
            results.append(checks.check_reference(json.load(f), outputs[0]))
    if len(outputs) > 1:
        results.append(checks.check_identical(outputs[0], outputs[1:]))
    return {
        "checks": [list(r) for r in results],
        "rows": max(len(ops["rows_list"]) - 1, 0),
        "quality": quality(outputs[0]),
    }


def _op_counts(ops: dict) -> dict:
    keys = ("maps", "rows", "eval_groups", "cv_calls", "stage_failures")
    return {k: ops[k] for k in keys}


def mode_pipeline(args: dict) -> dict:
    """Repeat the pipeline on one store for ``seconds``; check every pass."""
    import xckit.cli  # noqa: F401  (keeps the import out of the first pass)

    workload = WORKLOADS[args["workload"]]
    with open(os.path.join(args["dir"], "planted.json")) as f:
        planted = json.load(f)
    store, out = os.path.join(args["dir"], "store"), args["out"]
    deadline = float(args["deadline_s"])
    budget = min(float(args["seconds"]), deadline)
    passes, outputs, ops_per_pass = [], [], []
    t_start = time.perf_counter()
    while True:
        p = run_pass(workload, store, out, planted["a_thresh"])
        passes.append(p)
        outputs.append(read_outputs(out))
        ops_per_pass.append(pass_ops(workload, out, outputs[-1] | {"rc": p["rc"]},
                                     planted["preds"]))
        elapsed = time.perf_counter() - t_start
        projected = elapsed + statistics.median(q["pipeline_s"] for q in passes)
        if projected > deadline or (len(passes) >= MIN_PASSES and projected > budget):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = summarize(workload, args, planted, outputs, ops_per_pass[0])
    result["passes"] = passes
    result["pass_ops"] = [_op_counts(o) for o in ops_per_pass]
    result["peak_rss_mb"] = peak_rss_mb
    return result


# --- traced run: untraced, traced and untraced pass, then the layer microbench ---

def _install_patches(tracer) -> None:
    import xckit.attribution
    import xckit.cli
    import xckit.matching
    import xckit.meta
    import xckit.synth
    import xckit.xc

    def nbytes_arg(rec, args, kwargs, result):
        rec["counts"]["bytes"] = os.path.getsize(args[0])

    def tags(rec, args, kwargs, result):
        for t in result.tags:
            rec["counts"][t] = rec["counts"].get(t, 0) + 1

    def undefined(rec, args, kwargs, result):
        rec["counts"]["undefined_plus"] = (result.xc_s_plus is None) + (result.xc_c_plus is None)
        rec["counts"]["undefined_minus"] = (result.xc_s_minus is None) + (result.xc_c_minus is None)

    def skipped(rec, exc):
        rec["counts"]["skipped"] = 1

    def cv_rows(rec, args, kwargs, result):
        rec["counts"]["rows"] = len(args[0])

    tracer.patch(xckit.cli, "load_model", "io.model_load", on_call=nbytes_arg)
    tracer.patch(xckit.cli, "read_xcam", "io.xcam_read")
    tracer.patch(xckit.cli, "write_xcam", "io.xcam_write", on_call=nbytes_arg)
    for name in ("backprop_saliency", "integrated_gradients", "modified_integrated_gradients"):
        tracer.patch(xckit.synth, name, "attribution.map")
    tracer.patch(xckit.attribution, "input_gradient_array", "autodiff.input_grad")
    tracer.patch(xckit.meta, "xc_scores", "xc.box", on_call=undefined)
    tracer.patch(xckit.xc, "aggregate_signed", "xc.aggregate")
    tracer.patch(xckit.xc, "membership_mask", "geometry.mask")
    tracer.patch(xckit.meta, "categorize", "matching.frame")
    tracer.patch(xckit.cli, "categorize", "matching.frame", on_call=tags)
    tracer.patch(xckit.matching, "iou_3d", "geometry.iou")
    tracer.patch(xckit.cli, "evaluate_feature", "metrics.evaluate", on_error=skipped)
    tracer.patch(xckit.cli, "cross_validate", "meta.cv", on_call=cv_rows)
    tracer.patch(xckit.meta, "train_mlp", "meta.fold")


def layer_microbench(tracer, workload, store: str, samples: int = 12) -> dict:
    """Forward and backward of every layer of the workload's own model.

    Batch 1 is the frame's pseudo image; batch ``steps`` stacks the midpoint
    path points IG evaluates. The backward seed selects the first
    prediction's output, as one attribution map does. Returns, per
    (kind, phase, batch), the time each sample spent in layers of that kind.
    """
    import numpy as np
    from xckit.cli import read_frame_store
    from xckit.io_formats import load_model
    from xckit.synth import output_index

    _, fids, frames = read_frame_store(store)
    model = load_model(os.path.join(store, "model.json"))
    pseudo, preds, _ = frames[fids[0]]
    target = output_index(preds[0].anchor_index, preds[0].label)
    x1 = pseudo.astype(np.float64)[None]
    alphas = (np.arange(workload.steps) + 0.5) / workload.steps
    per_sample = {}

    def timed(layer, phase, tag, fn, *args):
        with tracer.span(f"autodiff.{layer.kind}.{phase}.{tag}") as rec:
            out = fn(*args)
        key = (layer.kind, phase, tag)
        per_sample[key][-1] += rec["end"] - rec["start"]
        return out

    for tag, x in (("b1", x1), ("bsteps", alphas[:, None, None, None] * x1)):
        for _ in range(samples):
            for layer in model.layers:
                for phase in ("fwd", "bwd"):
                    per_sample.setdefault((layer.kind, phase, tag), []).append(0.0)
            h, caches = x, []
            for layer in model.layers:
                h, cache = timed(layer, "fwd", tag, layer.forward, h)
                caches.append(cache)
            g = np.zeros_like(h)
            g.reshape(len(h), -1)[:, target] = 1.0
            for layer, cache in zip(reversed(model.layers), reversed(caches)):
                g, _ = timed(layer, "bwd", tag, layer.backward, g, cache)
    return per_sample


def _median_p90(values, scale):
    """Median and p90 (None below ten samples) of scaled timings."""
    vals = [v * scale for v in values]
    p90 = statistics.quantiles(vals, n=10)[-1] if len(vals) >= 10 else None
    return (statistics.median(vals) if vals else 0.0), p90


def mode_traced(args: dict) -> dict:
    from tracer import Tracer
    import xckit.cli

    workload = WORKLOADS[args["workload"]]
    tracer = Tracer()
    store, out = os.path.join(args["dir"], "store"), args["out"]

    tracer.patch(xckit.cli, "save_model", "io.model_save", on_call=lambda rec, a, k, r:
                 rec["counts"].update(bytes=os.path.getsize(a[0])))
    with tracer.span("setup"):
        setup = synthesize(workload, args["seed"], store, tracer)
    tracer.restore()
    planted = {"planted": setup["planted"], "preds": setup["preds"]}

    # untraced passes on both sides of the traced one, so warm-up and drift
    # do not land on the tracing overhead
    untraced = [run_pass(workload, store, out, setup["a_thresh"])]
    outputs = [read_outputs(out)]
    _install_patches(tracer)
    try:
        with tracer.span("pipeline") as pipe_rec:
            traced = run_pass(workload, store, out, setup["a_thresh"], tracer)
    finally:
        tracer.restore()
    outputs.append(read_outputs(out))
    ops = pass_ops(workload, out, outputs[-1] | {"rc": traced["rc"]}, setup["preds"])
    untraced.append(run_pass(workload, store, out, setup["a_thresh"]))
    outputs.append(read_outputs(out))
    result = summarize(workload, args, planted, outputs, ops)

    with tracer.span("microbench"):
        layers = layer_microbench(tracer, workload, store)
    tracer.write(os.path.join(args["trace_dir"], f"{workload.name}-seed{args['seed']}.jsonl"))

    d = tracer.durations
    one = lambda name: sum(d(name))  # noqa: E731
    stats = {}
    for stage in STAGES:
        stats[f"cli.{stage}_s"] = one(f"cli.{stage}")
    traced_s = pipe_rec["end"] - pipe_rec["start"]
    stats["trace.pipeline_s"] = traced_s
    untraced_s = statistics.mean(p["pipeline_s"] for p in untraced)
    stats["trace.untraced_pipeline_s"] = untraced_s
    stats["trace.overhead_s"] = traced_s - untraced_s
    stats["cli.coverage"] = sum(stats[f"cli.{s}_s"] for s in STAGES) / traced_s
    timings = {
        "attribution.map_ms": ("attribution.map", 1e3, True),
        "autodiff.input_grad_ms": ("autodiff.input_grad", 1e3, True),
        "xc.aggregate_ms": ("xc.aggregate", 1e3, True),
        "xc.box_ms": ("xc.box", 1e3, True),
        "geometry.mask_ms": ("geometry.mask", 1e3, True),
        "geometry.iou_us": ("geometry.iou", 1e6, True),
        "matching.frame_ms": ("matching.frame", 1e3, False),
        "metrics.evaluate_ms": ("metrics.evaluate", 1e3, False),
        "meta.fold_ms": ("meta.fold", 1e3, True),
        "io.xcam_write_ms": ("io.xcam_write", 1e3, True),
        "io.xcam_read_ms": ("io.xcam_read", 1e3, True),
        "synth.frame_ms": ("synth.frame", 1e3, False),
    }
    for kind in ("conv2d", "dense"):
        for phase in ("fwd", "bwd"):
            for tag in ("b1", "bsteps"):
                timings[f"autodiff.{kind}.{phase}_ms.{tag}"] = (layers[(kind, phase, tag)],
                                                                1e3, True)
    for metric, (spans, scale, p90) in timings.items():
        values = d(spans) if isinstance(spans, str) else spans
        stats[metric], p90_value = _median_p90(values, scale)
        if p90:
            stats[f"{metric}.p90"] = p90_value
    evaluated = len(d("metrics.evaluate")) - tracer.count("metrics.evaluate", "skipped")
    stats.update({
        "attribution.maps": len(d("attribution.map")),
        "xc.undefined.plus": tracer.count("xc.box", "undefined_plus"),
        "xc.undefined.minus": tracer.count("xc.box", "undefined_minus"),
        "matching.tp": tracer.count("matching.frame", "TP"),
        "matching.fp": tracer.count("matching.frame", "FP"),
        "matching.ignore": tracer.count("matching.frame", "Ignore"),
        "metrics.groups_evaluated": evaluated,
        "metrics.groups_skipped": tracer.count("metrics.evaluate", "skipped"),
        "meta.cv_s": one("meta.cv"),
        "meta.rows": tracer.count("meta.cv", "rows"),
        "io.xcam_bytes": tracer.count("io.xcam_write", "bytes"),
        "io.model_save_s": one("io.model_save"),
        "io.model_load_s": one("io.model_load"),
        "io.model_bytes": tracer.count("io.model_load", "bytes"),
        "synth.frames_attempted": setup["frames_attempted"],
        "synth.frames_failed": setup["frames_failed"],
    })
    result["per_layer"] = stats
    result["setup"] = {k: setup[k] for k in ("frames_attempted", "frames_failed", "preds")}
    result["pass_ops"] = [_op_counts(ops)]
    return result


MODES = {"setup": mode_setup, "pipeline": mode_pipeline, "traced": mode_traced}

if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in MODES:
        sys.exit(f"usage: child.py {{{'|'.join(MODES)}}} JSON-ARGS")
    print(json.dumps(MODES[sys.argv[1]](json.loads(sys.argv[2]))))
