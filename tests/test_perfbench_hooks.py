"""The pipeline benchmark wraps xckit functions by module attribute and
times the engine's layers through their forward/backward interface.

Installing and removing its patches, running a stage under them, and
running its layer timings once, here makes a rename of a wrapped function,
a code path that bypasses one, or a change to the layer interface fail the
suite, not only the traced benchmark run.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import child  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_patches_install_and_restore():
    import xckit.cli

    original = xckit.cli.categorize
    tracer = Tracer()
    try:
        child._install_patches(tracer)
        assert xckit.cli.categorize is not original
    finally:
        tracer.restore()
    assert xckit.cli.categorize is original


@pytest.mark.parametrize("method", ["backprop", "ig"])
def test_attribute_records_wrapped_spans(tmp_path, method):
    from xckit.cli import main

    store = str(tmp_path / "store")
    assert main(["synth", "--out", store, "--frames", "2", "--seed", "0"]) == 0
    tracer = Tracer()
    try:
        child._install_patches(tracer)
        assert main(["attribute", "--frames", store, "--out", str(tmp_path / "attribs"),
                     "--method", method, "--steps", "8", "--jobs", "1"]) == 0
    finally:
        tracer.restore()
    # the benchmark reads both span kinds; each map span holds one engine
    # call, which takes the frame's whole path (IG's 8 points, backprop's 1)
    maps = [s for s in tracer.spans if s["name"] == "attribution.map"]
    grads = [s for s in tracer.spans if s["name"] == "autodiff.input_grad"]
    assert maps and [s["parent"] for s in grads] == [s["id"] for s in maps]


def test_layer_microbench_runs_on_engine_layers(tmp_path):
    from xckit.cli import main

    store = str(tmp_path / "store")
    assert main(["synth", "--out", store, "--frames", "1", "--seed", "0"]) == 0
    per_sample = child.layer_microbench(Tracer(), WORKLOADS["readme-ig32"], store, samples=1)
    # the keys the traced benchmark run reads back
    for kind in ("conv2d", "dense"):
        for phase in ("fwd", "bwd"):
            for tag in ("b1", "bsteps"):
                assert per_sample[(kind, phase, tag)]


def test_train_meta_records_fold_spans(tmp_path):
    # the traced benchmark run needs one meta.fold span per fold x repeat
    from xckit.cli import main
    from xckit.io_formats import write_feature_csv
    from gen import noisy_and_feature_rows

    csv_path = str(tmp_path / "features.csv")
    write_feature_csv(csv_path, noisy_and_feature_rows(40))
    tracer = Tracer()
    try:
        child._install_patches(tracer)
        assert main(["train-meta", "--features", csv_path, "--seed", "0"]) == 0
    finally:
        tracer.restore()
    names = [s["name"] for s in tracer.spans]
    assert names.count("meta.cv") == 1
    assert names.count("meta.fold") == 25


def test_xc_and_match_record_geometry_spans(tmp_path):
    # the traced run's geometry.* and xc.* metrics need every box pair and
    # every scored box to pass through the wrapped names, fast paths included
    from xckit.cli import main, read_frame_store
    from xckit.matching import MatchConfig

    store, attribs = str(tmp_path / "store"), str(tmp_path / "attribs")
    assert main(["synth", "--out", store, "--frames", "2", "--seed", "0"]) == 0
    assert main(["attribute", "--frames", store, "--out", attribs, "--jobs", "1"]) == 0
    _, fids, frames = read_frame_store(store)
    thresh = MatchConfig().score_thresh
    pairs = [sum(p.top_score >= thresh for p in frames[f][1]) * len(frames[f][2]) for f in fids]
    assert sum(pairs) > 0
    stages = [
        ["xc", "--frames", store, "--attribs", attribs, "--out", str(tmp_path / "features.csv")],
        ["match", "--preds", os.path.join(store, "preds.jsonl"),
         "--gts", os.path.join(store, "gts.jsonl"), "--out", str(tmp_path / "tags.jsonl")],
    ]
    for argv in stages:
        tracer = Tracer()
        try:
            child._install_patches(tracer)
            assert main(argv) == 0
        finally:
            tracer.restore()
        spans = tracer.spans

        def children(parent, name):
            return [s for s in spans if s["parent"] == parent["id"] and s["name"] == name]

        frame_spans = [s for s in spans if s["name"] == "matching.frame"]
        assert [len(children(s, "geometry.iou")) for s in frame_spans] == pairs, argv[0]
        assert sum(s["name"] == "geometry.iou" for s in spans) == sum(pairs)
        if argv[0] == "xc":
            boxes = [s for s in spans if s["name"] == "xc.box"]
            assert boxes
            assert all(len(children(b, "geometry.mask")) == 1 for b in boxes)
            assert all(len(children(b, "xc.aggregate")) == 1 for b in boxes)


def test_ig_completeness_check_reads_the_store_and_maps(tmp_path):
    # the benchmark's own check reads pseudo images, the model and the maps through
    # xckit's readers, so a reader change that breaks it fails here too
    import checks
    from xckit.cli import main

    store, attribs = str(tmp_path / "store"), str(tmp_path / "attribs")
    assert main(["synth", "--out", store, "--frames", "2", "--seed", "0"]) == 0
    assert main(["attribute", "--frames", store, "--out", attribs, "--method", "ig",
                 "--steps", "32", "--jobs", "1"]) == 0
    name, ok, detail = checks.check_ig_completeness(store, attribs)
    assert name == "ig_completeness" and ok, detail
