"""Artifacts on disk: every writer leaves its target whole or as it was, and the
readers behind the CLI turn damaged files into an exit code naming the file.

The writers are cut by a stand-in for ``open`` in ``io_formats``, the only
module that opens files for writing: the first write to a file beside the
target stores half its data and raises KeyboardInterrupt, as Ctrl-C would.
The readers are fuzzed with derandomized hypothesis runs of the CLI in
process, so an uncaught error fails the test with its traceback.
"""

import contextlib
import functools
import glob
import io
import json
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import xckit.io_formats
from xckit.attribution import AttributionMap
from xckit.cli import main, write_frame_store
from xckit.io_formats import (
    FeatureRow,
    save_model,
    write_detections,
    write_feature_csv,
    write_ground_truths,
    write_xcam,
)
from xckit.synth import SceneSpec, generate_benchmark, save_scene_spec


def feature_rows(n=10):
    """``n`` rows, TP and FP alternating, enough for train-meta's folds."""
    rng = np.random.default_rng(0)
    return [FeatureRow(*rng.uniform(size=5).tolist(), True, True, True, False,
                       int(rng.integers(200)), float(rng.uniform(1, 40)), "car", i % 2 == 0)
            for i in range(n)]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A one-frame store, its backprop maps, a feature CSV, the default scene spec and a
    two-frame pipeline config that sets a value of every stage, written once."""
    d = tmp_path_factory.mktemp("artifacts")
    store = str(d / "store")
    assert main(["synth", "--out", store, "--frames", "1", "--seed", "42"]) == 0
    assert main(["attribute", "--frames", store, "--out", str(d / "attribs"), "--jobs", "1"]) == 0
    write_feature_csv(d / "features.csv", feature_rows())
    save_scene_spec(d / "scene.json", SceneSpec())
    (d / "pipeline.json").write_text(json.dumps({
        "out": str(d / "pipe"), "n_frames": 2, "scene": {"rng_seed": 3},
        "attribute": {"method": "ig", "steps": 2},
        "xc": {"score_thresh": 0.1, "margin": 0.2, "iou": "car=0.5,pedestrian=0.25,cyclist=0.25"},
        "eval": {"seed": 0, "group_by": "class"}, "train_meta": {"enabled": False, "seed": 0}}))
    return d


# --- crash safety: one case per artifact ---

def cut_writes_beside(monkeypatch, target):
    """Files that ``io_formats`` opens for writing beside ``target`` store half of their
    first write, then raise KeyboardInterrupt."""
    real_open = open

    class Cut:
        def __init__(self, f):
            self.f = f

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            raise KeyboardInterrupt

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    def cut_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return Cut(f) if "r" not in mode and str(file).startswith(str(target)) else f

    monkeypatch.setattr(xckit.io_formats, "open", cut_open, raising=False)


def store_frames():
    spec = SceneSpec(rng_seed=3)
    frames, manifest = generate_benchmark(spec, 1)
    return spec, frames, manifest


def write_store(d):
    write_frame_store(d / "store", *store_frames())


def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(map(str, argv)))


WRITERS = {
    "xcam": lambda d, t: write_xcam(t, AttributionMap(values=np.ones((2, 3, 4)), method="m")),
    "detections": lambda d, t: write_detections(
        t, [("000000", p) for p in store_frames()[1][0].preds]),
    "ground-truths": lambda d, t: write_ground_truths(
        t, [("000000", g) for g in store_frames()[1][0].gts]),
    "feature-csv": lambda d, t: write_feature_csv(t, feature_rows()),
    "model": lambda d, t: save_model(t, store_frames()[1][0].model),
    "scene-spec": lambda d, t: save_scene_spec(t, SceneSpec()),
    "manifest": lambda d, t: write_store(d),
    "match-tags": lambda d, t: cli("match", "--preds", d / "store" / "preds.jsonl",
                                   "--gts", d / "store" / "gts.jsonl", "--out", t),
    "eval-table": lambda d, t: cli("eval", "--features", d / "features.csv", "--out", t),
    "train-meta-report": lambda d, t: cli("train-meta", "--features", d / "features.csv",
                                          "--out", t),
}
TARGETS = {"manifest": "store/manifest.json"}


@pytest.mark.parametrize("earlier", [None, b"earlier bytes\n"], ids=["absent", "present"])
@pytest.mark.parametrize("writer", list(WRITERS))
def test_interrupted_write_keeps_target(tmp_path, monkeypatch, writer, earlier):
    if writer in ("match-tags", "eval-table", "train-meta-report"):
        write_store(tmp_path)
        write_feature_csv(tmp_path / "features.csv", feature_rows())
    target = tmp_path / TARGETS.get(writer, "artifact")
    target.parent.mkdir(exist_ok=True)
    if earlier is not None:
        target.write_bytes(earlier)
    cut_writes_beside(monkeypatch, target)
    with pytest.raises(KeyboardInterrupt):
        WRITERS[writer](tmp_path, target)
    assert target.read_bytes() == earlier if earlier else not target.exists()
    assert glob.glob(str(tmp_path / "**" / "*.tmp"), recursive=True) == []


# --- fuzzed readers: exit 0 or 1, never 2 (a usage error), and an exit 1 names the file ---

FUZZ = settings(max_examples=25, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def run_on_damaged(path, data, argv):
    """Exit code of ``argv`` with ``data`` in place of ``path``'s bytes; the bytes are restored."""
    original = path.read_bytes()
    try:
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
    finally:
        path.write_bytes(original)
    assert code in (0, 1), err.getvalue()  # the command line is sound; only the file is not
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert str(path) in err.getvalue()
    return code


@st.composite
def damaged_bytes(draw, raw):
    """``raw`` with up to three bytes replaced, then maybe truncated."""
    out = bytearray(raw)
    for _ in range(draw(st.integers(0, 3))):
        out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out[: draw(st.integers(0, len(out)))] if draw(st.booleans()) else out)


# JSON texts that json.dumps cannot write: Python's int() refuses more than 4300 digits,
# and its decoder's recursion limit refuses deep nesting
BEYOND_LIMITS = [b"9" * 5000, b"[" * 200_000 + b"]" * 200_000]


@st.composite
def damaged_lines(draw, raw):
    """``raw`` with one line dropped, repeated, cut short, replaced (by random bytes or by a
    text from ``BEYOND_LIMITS``) or changed in one byte."""
    lines = raw.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["limit", "drop", "repeat", "cut", "replace", "byte"]))
    if kind == "limit":
        lines[i] = draw(st.sampled_from(BEYOND_LIMITS))
    elif kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "cut":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    elif kind == "replace":
        lines[i] = draw(st.binary(max_size=30))
    elif lines[i]:
        j = draw(st.integers(0, len(lines[i]) - 1))
        lines[i] = lines[i][:j] + bytes([draw(st.integers(0, 255))]) + lines[i][j + 1:]
    return b"\n".join(lines)


# a number swapped in for another; none builds a large model or a long conv loop
NUMBERS = [0, -1, 1, 2.5, True, 2**40]
ONE_OF_EACH_TYPE = [None, False, 3, "x", [], {}]


def json_nodes(value, path=()):
    """(path, value) for every value below ``value``."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from json_nodes(child, path + (key,))


@st.composite
def damaged_json(draw, raw):
    """``raw`` JSON with one value deleted, given another JSON type, replaced by a text from
    ``BEYOND_LIMITS`` or, if a number, replaced from ``NUMBERS``."""
    doc = json.loads(raw)
    (*head, key), value = draw(st.sampled_from(list(json_nodes(doc))))
    parent = functools.reduce(operator.getitem, head, doc)
    number = type(value) in (int, float)
    kind = draw(st.sampled_from(["delete", "type", "limit", "number"][: 4 if number else 3]))
    if kind == "delete":
        del parent[key]
    elif kind == "limit":  # a stand-in, swapped for the text once the rest is written
        parent[key] = "\0limit\0"
        return json.dumps(doc).encode().replace(b'"\\u0000limit\\u0000"',
                                                draw(st.sampled_from(BEYOND_LIMITS)))
    else:
        parent[key] = draw(st.sampled_from(NUMBERS if kind == "number" else
                                           [v for v in ONE_OF_EACH_TYPE if type(v) is not type(value)]))
    return json.dumps(doc).encode()


def fuzz_case(name, argv, damage=None, examples=FUZZ.max_examples):
    """Hypothesis test: damage ``name`` under the run directory, then run ``argv``."""
    damage = damage or (damaged_bytes if name.endswith(".xcam") else damaged_lines)

    @settings(FUZZ, max_examples=examples)
    @given(data=st.data())
    def check(run_dir, data):
        path = run_dir / name
        raw = path.read_bytes()
        run_on_damaged(path, data.draw(damage(raw)), [a.format(d=run_dir) for a in argv])
    return check


test_fuzz_pseudo_image = fuzz_case(
    "store/frames/000000.xcam",
    ["attribute", "--frames", "{d}/store", "--out", "{d}/attribs-out", "--jobs", "1"])
test_fuzz_attribution_map = fuzz_case(
    "attribs/000000_000.xcam",
    ["xc", "--frames", "{d}/store", "--attribs", "{d}/attribs", "--out", "{d}/out.csv"])
test_fuzz_predictions = fuzz_case(
    "store/preds.jsonl",
    ["match", "--preds", "{d}/store/preds.jsonl", "--gts", "{d}/store/gts.jsonl",
     "--out", "{d}/tags.jsonl"])
test_fuzz_features_eval = fuzz_case(
    "features.csv", ["eval", "--features", "{d}/features.csv"])
test_fuzz_features_train_meta = fuzz_case(
    "features.csv", ["train-meta", "--features", "{d}/features.csv"])
test_fuzz_model = fuzz_case(
    "store/model.json",
    ["attribute", "--frames", "{d}/store", "--model", "{d}/store/model.json",
     "--out", "{d}/attribs-model", "--jobs", "1"], damaged_json, examples=60)
test_fuzz_model_params = fuzz_case(
    "store/model.xcam",
    ["attribute", "--frames", "{d}/store", "--out", "{d}/attribs-params", "--jobs", "1"])
test_fuzz_scene_spec = fuzz_case(
    "scene.json", ["synth", "--spec", "{d}/scene.json", "--frames", "1", "--out", "{d}/synth-out"],
    damaged_json, examples=100)
test_fuzz_store_scene_spec = fuzz_case(
    "store/scene.json",
    ["attribute", "--frames", "{d}/store", "--out", "{d}/attribs-scene", "--jobs", "1"],
    damaged_json, examples=100)
test_fuzz_pipeline_config = fuzz_case(
    "pipeline.json", ["pipeline", "--config", "{d}/pipeline.json"], damaged_json, examples=60)
