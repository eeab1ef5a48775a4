import base64
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import xckit
from xckit.cli import EVAL_FEATURES, build_parser, main
from xckit.attribution import AttributionMap
from xckit.io_formats import (
    FEATURE_CSV_COLUMNS, FeatureRow, read_feature_csv, write_feature_csv, write_xcam)


def run(argv):
    return main(argv)


def make_store(tmp_path, name="store", frames=5, seed=42):
    out = str(tmp_path / name)
    assert run(["synth", "--out", out, "--frames", str(frames), "--seed", str(seed)]) == 0
    return out


def oracle_rows(n=60, seed=0):
    # top_score separates the classes perfectly; everything else is noise
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        is_tp = i % 2 == 0
        rows.append(
            FeatureRow(
                top_score=float(rng.uniform(0.7, 1.0) if is_tp else rng.uniform(0.0, 0.3)),
                xc_s_plus=float(rng.uniform()), xc_c_plus=float(rng.uniform()),
                xc_s_minus=float(rng.uniform()), xc_c_minus=float(rng.uniform()),
                xc_s_plus_valid=True, xc_c_plus_valid=True,
                xc_s_minus_valid=True, xc_c_minus_valid=True,
                n_points=int(rng.integers(10, 300)),
                distance=float(rng.uniform(1, 50)),
                pred_label="car",
                is_tp=is_tp,
            )
        )
    return rows


def run_subprocess(argv, cwd):
    """Run the CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(xckit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "xckit.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def edit_first_pred(store, **fields):
    path = os.path.join(store, "preds.jsonl")
    lines = open(path).read().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **fields})
    open(path, "w").write("\n".join(lines) + "\n")


def corrupt_pseudo_metadata(store):
    # the metadata JSON ends the file; a 0xff byte inside it is not UTF-8
    path = os.path.join(store, "frames", "000000.xcam")
    raw = bytearray(open(path, "rb").read())
    raw[-2] = 0xFF
    open(path, "wb").write(bytes(raw))


def replace_first_line(store, name, first):
    path = os.path.join(store, name)
    lines = open(path, "rb").read().splitlines()
    open(path, "wb").write(b"\n".join([first] + lines[1:]) + b"\n")


def set_pseudo_target(store, target):
    # rewrite the metadata block that ends the first pseudo image
    path = os.path.join(store, "frames", "000000.xcam")
    raw = open(path, "rb").read()
    h, w, c = struct.unpack_from("<III", raw, 6)
    end = 18 + 4 * h * w * c
    blob = json.dumps({"method": "pseudo-image", "target": target}).encode()
    open(path, "wb").write(raw[:end] + struct.pack("<I", len(blob)) + blob)


def first_map(store):
    # attribution maps go next to the store
    attribs = os.path.join(os.path.dirname(store), "attribs")
    assert run(["attribute", "--frames", store, "--out", attribs, "--jobs", "1"]) == 0
    return os.path.join(attribs, "000000_000.xcam")


def truncate_first_map(store):
    open(first_map(store), "r+b").truncate(100)


def replace_xcam(where, values):
    """A mutation that writes ``values`` over the XCAM that ``where(store)`` names."""
    def mutate(store):
        write_xcam(where(store), AttributionMap(values=values, method="replaced"))
    return mutate


def first_pseudo(store):
    return os.path.join(store, "frames", "000000.xcam")


def with_inf(shape):
    values = np.zeros(shape)
    values[0, 1, 0] = np.inf  # the fifth float, at byte offset 18 + 4 * 4
    return values


def bad_pseudo_magic(store):
    with open(os.path.join(store, "frames", "000000.xcam"), "r+b") as f:
        f.write(b"MAXC")


def writes(name, data, argv):
    """An ``argv`` callable that first writes ``data`` to ``name`` in the working directory."""
    def build(store):
        with open(name, "wb") as f:
            f.write(data)
        return argv
    return build


def match_argv(store):
    return ["match", "--preds", os.path.join(store, "preds.jsonl"),
            "--gts", os.path.join(store, "gts.jsonl"), "--out", "tags.jsonl"]


def xc_argv(store):
    return ["xc", "--frames", store, "--attribs", "attribs", "--out", "features.csv"]


def attribute_argv(store):
    return ["attribute", "--frames", store, "--out", "attribs", "--jobs", "1"]


def write_model(spec):
    def mutate(store):
        with open(os.path.join(store, "model.json"), "w") as f:
            f.write(spec)
    return mutate


def encoded_weight(weight):
    """A model.json text whose one dense layer (2 -> 1) carries ``weight`` as its weight."""
    return json.dumps({"input_shape": [2], "layers": [
        {"kind": "dense", "in_features": 2, "out_features": 1, "weight": weight, "bias": [0.0]}]})


def model_flag(spec):
    """``attribute --model m.json``, with ``spec`` written to m.json."""
    return lambda s: writes("m.json", json.dumps(spec).encode(),
                            attribute_argv(s) + ["--model", "m.json"])(s)


def f32le(*words):
    """base64 of little-endian uint32 words, i.e. of float32 bit patterns."""
    return base64.b64encode(struct.pack(f"<{len(words)}I", *words)).decode()


def degenerate_first_pred(dx, offset=0.0):
    """Give the first prediction a square footprint of side ``dx``, ``offset`` m from a GT."""
    def mutate(store):
        gt = json.loads(open(os.path.join(store, "gts.jsonl")).readline())
        cx, cy, cz, _, _, dz, _ = gt["box"]
        edit_first_pred(store, frame_id=gt["frame_id"], label=gt["label"],
                        box=[cx + offset, cy, cz, dx, dx, dz, 0.0])
    return mutate


def features_csv(row, command="eval"):
    """``command``'s argv on a feature CSV holding the header and ``row``."""
    header = ",".join(FEATURE_CSV_COLUMNS).encode()
    return writes("features.csv", header + b"\n" + row + b"\n",
                  [command, "--features", "features.csv"])


CSV_ROW_HEAD = b"0.9,0.5,0.5,0.5,0.5,1,1,1,1,120,10.0,"
SYNTH_SPEC = ["synth", "--out", "s", "--frames", "1", "--spec", "spec.json"]
PIPELINE = ["pipeline", "--config", "cfg.json"]


def scene_rows(fields, needle):
    """Two rows for one bad scene spec, through ``synth --spec`` and through a pipeline's
    ``scene`` section; each message names its file."""
    return [(lambda s: None, writes("spec.json", b"{" + fields + b"}", SYNTH_SPEC), 1,
             f"spec.json: {needle}"),
            (lambda s: None, writes("cfg.json", b'{"out": "run", "scene": {' + fields + b"}}",
                                    PIPELINE), 1, f"cfg.json: {needle}")]


@pytest.mark.parametrize(
    "mutate, argv, code, needle",
    [
        (lambda s: edit_first_pred(s, scores={"car": "abc"}), match_argv, 1,
         "preds.jsonl: line 1"),
        (lambda s: edit_first_pred(s, anchor_index="3"), attribute_argv, 1,
         "preds.jsonl: line 1"),
        (corrupt_pseudo_metadata, attribute_argv, 1, "byte offset"),
        (lambda s: edit_first_pred(s, label="truck"), attribute_argv, 1, "UnknownLabel"),
        (lambda s: None, writes("cfg.json", b'{"out": "run", "n_frames": "abc"}', PIPELINE), 1,
         "cfg.json: n_frames must be of type int, got 'abc'"),
        (lambda s: replace_first_line(s, "preds.jsonl", b"5"), match_argv, 1,
         "preds.jsonl: line 1"),
        (lambda s: replace_first_line(s, "gts.jsonl", b"null"), match_argv, 1,
         "gts.jsonl: line 1"),
        (lambda s: replace_first_line(s, "preds.jsonl", b"\xff{}"), match_argv, 1,
         "preds.jsonl: line 1"),
        (lambda s: None, writes("cfg.json", b'\xff{"out": "run"}', PIPELINE), 1, "cfg.json"),
        (lambda s: None, writes("spec.json", b'\xff{}', SYNTH_SPEC), 1, "spec.json"),
        (lambda s: None, writes("spec.json", b"{bad", SYNTH_SPEC), 1, "spec.json"),
        (lambda s: None, writes("spec.json", b'{"n_objects": [1]}', SYNTH_SPEC), 1, "n_objects"),
        (lambda s: None, writes("cfg.json", b'{"out": "run", "scene": {"n_objects": [1]}}',
                                PIPELINE), 1, "cfg.json: bad scene spec field 'n_objects'"),
        (lambda s: set_pseudo_target(s, 5), attribute_argv, 1, "byte offset"),
        (lambda s: open(os.path.join(s, "model.json"), "w").write("{bad"), attribute_argv, 1,
         "model.json"),
        (lambda s: None, writes("spec.json", b'{"grid": {"height": 40.0, "width": 40, '
                                b'"origin_x": -8.0, "origin_y": -8.0, "pixel_size": 0.4}}',
                                SYNTH_SPEC), 1, "grid height must be an integer"),
        (lambda s: open(os.path.join(s, "model.json"), "w").write(
            '{"input_shape": [40, 40, 4], "layers": [{"kind": "dense"}]}'),
         attribute_argv, 1, "layers.0 (dense): missing field 'in_features'"),
        (lambda s: replace_first_line(s, "gts.jsonl", b'{"frame_id": "000000", "box": [1], '
                                      b'"label": "car"}'), match_argv, 1, "gts.jsonl: line 1"),
        (write_model('{"input_shape": [40, 40, 4], "layers": [5]}'), attribute_argv, 1,
         "layers.0: entry must be an object"),
        (write_model('{"input_shape": [40, 40, 4], "layers": [{"kind": "conv2d", '
                     '"in_channels": "abc", "out_channels": 4, "kernel": [3, 3]}]}'),
         attribute_argv, 1, "layers.0 (conv2d): in_channels"),
        (write_model('{"input_shape": 5, "layers": []}'), attribute_argv, 1, "input_shape"),
        (lambda s: None, features_csv(CSV_ROW_HEAD + b"\xff,1"), 1, "features.csv: byte offset"),
        (lambda s: None, features_csv(CSV_ROW_HEAD + b"x" * 131_073 + b",1"), 1,
         "features.csv: line 2"),
        (lambda s: None, features_csv(CSV_ROW_HEAD + b"car,2"), 1, "features.csv: line 2: is_tp"),
        (write_model('{"input_shape": [40, 40, 4], "seed": "x", "layers": []}'), attribute_argv,
         1, "seed must be a non-negative integer"),
        (write_model('{"input_shape": [40, 40, 4], "seed": -1, "layers": []}'), attribute_argv,
         1, "seed must be a non-negative integer"),
        (write_model('{"input_shape": [40, 40, 4], "layers": [{"kind": "flatten"}]}'),
         attribute_argv, 1, "model.json:"),
        (lambda s: edit_first_pred(s, box=[float("nan"), 0.0, 0.0, 4.0, 1.8, 1.6, 0.0]),
         match_argv, 1, "preds.jsonl: line 1: bad box: box fields must be finite"),
        (lambda s: replace_first_line(s, "gts.jsonl", b'{"frame_id": "000000", "box": [Infinity, '
                                      b'0, 0, 4, 1.8, 1.6, 0], "label": "car"}'), match_argv, 1,
         "gts.jsonl: line 1: bad box: box fields must be finite"),
        (lambda s: None, writes("spec.json", b'{"grid": {"height": 40, "width": 40, '
                                b'"origin_x": -8.0, "origin_y": -8.0, "pixel_size": NaN}}',
                                SYNTH_SPEC), 1, "grid pixel_size must be a finite number"),
        (write_model(encoded_weight({"shape": [2, 1], "f32le": "AAAA*AAAAAAA="})), attribute_argv,
         1, "model.json: layers.0 (dense) weight: 'f32le' is not valid base64"),
        (write_model(encoded_weight({"shape": [2, 1], "f32le": f32le(0)})), attribute_argv, 1,
         "model.json: layers.0 (dense) weight: 'f32le' holds 4 bytes, shape [2, 1] needs 8"),
        (write_model(encoded_weight({"shape": [1, 2], "f32le": f32le(0, 0)})), attribute_argv, 1,
         "model.json: layers.0 (dense) weight: expected shape [2, 1], got [1, 2]"),
        (write_model(encoded_weight({"shape": [2, 1], "f32le": f32le(0, 0x7FC00000)})),
         attribute_argv, 1, "model.json: layers.0 (dense) weight: non-finite parameter values"),
        (write_model(encoded_weight({"shape": [2, 1], "f32le": [0.0, 0.0]})), attribute_argv, 1,
         "model.json: layers.0 (dense) weight: 'f32le' must be a base64 string"),
        (write_model(encoded_weight({"shape": "2x1", "f32le": f32le(0, 0)})), attribute_argv, 1,
         "model.json: layers.0 (dense) weight: expected shape [2, 1], got '2x1'"),
        (write_model(encoded_weight([["abc"], [1.0]])), attribute_argv, 1,
         "model.json: layers.0 (dense) weight: parameters must be nested lists of numbers"),
        (degenerate_first_pred(1e-170), match_argv, 1,
         "preds.jsonl: line 1: bad box: box footprint is degenerate"),
        (degenerate_first_pred(1e-170, offset=50.0), match_argv, 1,
         "preds.jsonl: line 1: bad box: box footprint is degenerate"),
        (degenerate_first_pred(1e-12, offset=1e6), match_argv, 1,
         "preds.jsonl: line 1: bad box: box footprint is degenerate"),
        (degenerate_first_pred(1e200), match_argv, 1,
         "preds.jsonl: line 1: bad box: box footprint is degenerate: polygon area overflows"),
        (truncate_first_map, xc_argv, 1, "000000_000.xcam: byte offset 18: payload+metadata"),
        (bad_pseudo_magic, attribute_argv, 1, "000000.xcam: byte offset 0: magic b'MAXC'"),
        (lambda s: edit_first_pred(s, scores={"car": float("nan")}), match_argv, 1,
         "preds.jsonl: line 1: scores and distance must be finite numbers: got {'car': nan}"),
        (lambda s: edit_first_pred(s, distance=float("inf")), match_argv, 1,
         "preds.jsonl: line 1: scores and distance must be finite numbers: got {"),
        (lambda s: edit_first_pred(s, n_points=3.7), match_argv, 1,
         "preds.jsonl: line 1: n_points must be an integer >= 0, got 3.7"),
        (lambda s: edit_first_pred(s, scores={"car": "0.9"}), match_argv, 1,
         "preds.jsonl: line 1: scores and distance must be finite numbers: "
         "must be of type float, got '0.9'"),
        (lambda s: None, writes("spec.json", b'{"rng_seed": 7.9}', SYNTH_SPEC), 1,
         "spec.json: bad scene spec field 'rng_seed': must be of type int, got 7.9"),
        (replace_xcam(first_map, np.zeros((20, 40, 4))), xc_argv, 1,
         "000000_000.xcam: byte offset 6: shape (20, 40, 4) != expected (40, 40, 4)"),
        (replace_xcam(first_pseudo, np.zeros((40, 30, 4))), attribute_argv, 1,
         "000000.xcam: byte offset 6: shape (40, 30, 4) != expected (40, 40, 4)"),
        (replace_xcam(first_pseudo, with_inf((40, 40, 4))), attribute_argv, 1,
         "000000.xcam: byte offset 34: value is not finite"),
        (lambda s: None, features_csv(b"0.9,nan,0.5,0.5,0.5,1,1,1,1,120,10.0,car,1"), 1,
         "features.csv: line 2: xc_s_plus: must be finite, got 'nan'"),
        (lambda s: None, features_csv(b"0.9,0.5,0.5,0.5,inf,1,1,1,1,120,10.0,car,1",
                                      "train-meta"), 1,
         "features.csv: line 2: xc_c_minus: must be finite, got 'inf'"),
        (lambda s: None, writes("spec.json", b'{"n_objects": {"car": 1000000000}}', SYNTH_SPEC),
         1, "spec.json: n_objects: 1000000000 objects cannot fit 16 anchor blocks"),
        (lambda s: None, writes("cfg.json", b'{"out": "run", "scene": {"n_objects": '
                                b'{"car": 1000000000}}}', PIPELINE), 1,
         "cfg.json: n_objects: 1000000000 objects cannot fit 16 anchor blocks"),
        (write_model('{"input_shape": [1], "seed": 1, "layers": [{"kind": "dense", '
                     '"in_features": 1, "out_features": 4000000000}]}'), attribute_argv, 1,
         "model.json: layers.0 (dense) weight: 4000000000 elements exceed 268435456"),
        *scene_rows(b'"rng_sed": 7', "unknown scene spec field 'rng_sed'"),
        *scene_rows(b'"n_objects": {"truck": 3, "Car": 2}',
                    "n_objects: unknown class 'Car', not one of ('car', 'pedestrian', "
                    "'cyclist')"),
        (lambda s: None, writes("spec.json", b'{"size_ranges": {"car": [[4.7, 3.9], '
                                b'[1.6, 2.0], [1.4, 1.6]]}}', SYNTH_SPEC), 1,
         "spec.json: size_ranges: 'car' needs three (lo, hi) ranges with 0 < lo <= hi"),
        (write_model(encoded_weight([["3.5"], [1.0]])), attribute_argv, 1,
         "model.json: layers.0 (dense) weight: parameters must be nested lists of numbers"),
        (lambda s: None, writes("cfg.json", b'{"out": "run", "attribute": {"steps": "7"}}',
                                PIPELINE), 1, "cfg.json: steps must be of type int, got '7'"),
        (lambda s: None, lambda s: writes("m.json", encoded_weight([[True], [1.0]]).encode(),
                                          attribute_argv(s) + ["--model", "m.json"])(s), 1,
         "m.json: layers.0 (dense) weight: parameters must be nested lists of numbers: "
         "got bool values"),
        (lambda s: None, model_flag({"input_shape": [40, 40, 4], "seed": 0, "layers": [
            {"kind": "dense", "in_features": 6400, "out_features": 4}]}), 1,
         "TargetOutOfRange: m.json: frame 000000: car output 6 outside the model's [0, 4)"),
        (lambda s: None, model_flag({"input_shape": [20, 40, 4], "seed": 0, "layers": [
            {"kind": "dense", "in_features": 3200, "out_features": 48}]}), 1,
         "ShapeMismatch: m.json: model input (20, 40, 4) != frame shape (40, 40, 4)"),
        (lambda s: None, writes("cfg.json", b"[1]", PIPELINE), 1,
         "cfg.json: the config must hold a JSON object"),
    ],
    ids=["non-numeric-score", "string-anchor-index", "xcam-metadata-not-utf8",
         "unknown-label", "config-value-wrong-type", "detection-not-object",
         "ground-truth-not-object", "detection-not-utf8", "config-not-utf8",
         "scene-spec-not-utf8", "scene-spec-bad-json", "scene-spec-wrong-nested-type",
         "pipeline-scene-wrong-nested-type", "xcam-target-not-object", "model-bad-json",
         "scene-spec-float-grid-size", "model-layer-missing-field", "ground-truth-bad-box",
         "model-layer-not-object", "model-size-not-integer", "model-input-shape-not-list",
         "features-not-utf8", "features-oversized-field", "features-flag-not-0-or-1",
         "model-seed-not-integer", "model-seed-negative", "model-error-names-file",
         "prediction-box-nan", "ground-truth-box-infinity", "scene-spec-pixel-size-nan",
         "model-weight-bad-base64", "model-weight-wrong-byte-count", "model-weight-wrong-shape",
         "model-weight-nan-bits", "model-weight-f32le-not-string", "model-weight-shape-not-a-list",
         "model-weight-not-numbers", "prediction-box-underflow-near-gt",
         "prediction-box-underflow-far", "prediction-box-extent-below-center-ulp",
         "prediction-box-area-overflow", "xcam-map-truncated", "xcam-pseudo-bad-magic",
         "prediction-score-nan", "prediction-distance-infinity", "prediction-n-points-float",
         "prediction-score-string", "scene-spec-seed-float", "xcam-map-wrong-shape",
         "xcam-pseudo-wrong-shape", "xcam-pseudo-infinity", "features-nan-eval",
         "features-infinity-train-meta", "scene-spec-too-many-objects",
         "pipeline-scene-too-many-objects", "model-seeded-layer-too-large",
         "scene-spec-unknown-field", "pipeline-scene-unknown-field", "scene-spec-unknown-class",
         "pipeline-scene-unknown-class", "scene-spec-size-range-reversed", "model-weight-string",
         "config-value-string-for-int", "model-flag-weight-mixes-booleans",
         "model-flag-too-few-outputs", "model-flag-other-input-shape", "config-not-object"],
)
def test_malformed_input_exits_cleanly(tmp_path, monkeypatch, mutate, argv, code, needle):
    store = make_store(tmp_path, frames=1)
    mutate(store)
    monkeypatch.chdir(tmp_path)
    args = argv(store)
    proc = run_subprocess(args, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert needle in proc.stderr
    if args[0] == "attribute":  # every input is checked before --out is made
        assert not (tmp_path / "attribs").exists()
    if needle.startswith(("spec.json: ", "cfg.json: ")):  # a field of one object, on no line
        assert "line 1" not in proc.stderr


@pytest.mark.parametrize("dy, code", [(1e200, 1), (1e-100, 0)], ids=["area-overflow", "thin"])
def test_huge_box_matches_without_warnings(tmp_path, monkeypatch, dy, code):
    # warnings are errors in the child, so an overflow warning would end in a traceback;
    # a footprint of area inf is rejected, a thin one of finite area is matched
    store = make_store(tmp_path, frames=1)
    edit_first_pred(store, box=[0.0, 0.0, 0.0, 1e200, dy, 1.5, 0.0])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONWARNINGS", "error")
    proc = run_subprocess(match_argv(store), cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.fixture
def refused(tmp_path, monkeypatch, capsys):
    """``check(argv, config, needle)`` in an empty directory. A fault in ``argv`` exits 2,
    a usage error. A fault in ``config``, a two-frame pipeline config written to cfg.json
    (a None drops a key), exits 1, naming the config in front. Nothing is written."""
    monkeypatch.chdir(tmp_path)

    def check(argv, config, needle):
        if config is not None:
            cfg = {"out": "run", "n_frames": 2, **config}
            (tmp_path / "cfg.json").write_text(
                json.dumps({key: value for key, value in cfg.items() if value is not None}))
        code, err = run(argv), capsys.readouterr().err
        if config is None:
            assert (code, err) == (2, f"usage error: {needle}\n")
        else:
            assert code == 1 and err.startswith("data error: "), err
            assert err.endswith(f": cfg.json: {needle}\n"), err
        assert os.listdir(tmp_path) == ([] if config is None else ["cfg.json"])
    return check


@pytest.mark.parametrize("argv, needle", [
    (["synth", "--out", "s", "--seed", "-1"], "rng_seed must be a non-negative integer, got -1"),
    (["eval", "--features", "f.csv", "--seed", "-1"],
     "seed must be a non-negative integer, got -1"),
], ids=["synth", "eval"])
def test_negative_seed_flag_exits_cleanly(refused, argv, needle):
    refused(argv, None, needle)


class TestParserDefaults:
    def test_xc_defaults(self):
        args = build_parser().parse_args(
            ["xc", "--frames", "a", "--attribs", "b", "--out", "c"]
        )
        assert args.a_thresh == 0.1
        assert args.margin == 0.2
        assert args.score_thresh == 0.1

    def test_attribute_defaults(self):
        args = build_parser().parse_args(["attribute", "--frames", "a", "--out", "b"])
        assert args.method == "backprop"
        assert args.steps == 32

    def test_match_defaults(self):
        args = build_parser().parse_args(
            ["match", "--preds", "a", "--gts", "b", "--out", "c"]
        )
        assert args.score_thresh == 0.1
        assert args.iou == "car=0.5,pedestrian=0.25,cyclist=0.25"

    def test_bad_method_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["attribute", "--frames", "a", "--out", "b", "--method", "shap"]
            )
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "s"], ["attribute", "--frames", "s", "--out", "a"],
        ["xc", "--frames", "s", "--attribs", "a", "--out", "f.csv"],
        ["match", "--preds", "p", "--gts", "g", "--out", "t"], ["eval", "--features", "f.csv"],
        ["train-meta", "--features", "f.csv"]], ids=lambda argv: argv[0])
    def test_only_pipeline_takes_a_config(self, capsys, argv):
        # a subcommand's flags come from its command line; `pipeline` reads the config file
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--config", "f.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config f.json" in capsys.readouterr().err


class TestSynth:
    def test_store_layout(self, tmp_path):
        store = make_store(tmp_path)
        for name in ("scene.json", "model.json", "manifest.json", "preds.jsonl", "gts.jsonl"):
            assert os.path.exists(os.path.join(store, name))
        frames = os.listdir(os.path.join(store, "frames"))
        assert len(frames) == 5 and all(f.endswith(".xcam") for f in frames)

    def test_deterministic_reruns(self, tmp_path):
        a = make_store(tmp_path, "a")
        b = make_store(tmp_path, "b")
        for rel in ("preds.jsonl", "gts.jsonl", os.path.join("frames", "000000.xcam")):
            pa = open(os.path.join(a, rel), "rb").read()
            pb = open(os.path.join(b, rel), "rb").read()
            assert pa == pb


class TestAttribute:
    def test_one_map_per_prediction(self, tmp_path):
        store = make_store(tmp_path, frames=3)
        out = str(tmp_path / "attribs")
        assert run(["attribute", "--frames", store, "--out", out, "--jobs", "2"]) == 0
        n_preds = sum(1 for _ in open(os.path.join(store, "preds.jsonl")))
        assert len(os.listdir(out)) == n_preds

    def test_rerun_overwrites_identically(self, tmp_path):
        store = make_store(tmp_path, frames=2)
        out = str(tmp_path / "attribs")
        assert run(["attribute", "--frames", store, "--out", out]) == 0
        name = sorted(os.listdir(out))[0]
        first = open(os.path.join(out, name), "rb").read()
        assert run(["attribute", "--frames", store, "--out", out]) == 0
        assert open(os.path.join(out, name), "rb").read() == first

    @pytest.mark.parametrize("method", ["backprop", "ig"])
    def test_jobs_do_not_change_maps(self, tmp_path, method):
        store = make_store(tmp_path, frames=4)
        written = []
        for jobs in ("1", "2"):
            out = str(tmp_path / f"attribs{jobs}")
            assert run(["attribute", "--frames", store, "--out", out, "--method", method,
                        "--steps", "7", "--jobs", jobs]) == 0
            written.append({name: open(os.path.join(out, name), "rb").read()
                            for name in sorted(os.listdir(out))})
        assert written[0] and written[0] == written[1]

    def test_missing_store_is_data_error(self, tmp_path):
        assert run(["attribute", "--frames", str(tmp_path / "nope"), "--out", "x"]) == 1

    def test_backprop_ignores_steps(self, tmp_path):
        store = make_store(tmp_path, frames=1)
        for steps in ("0", str(2**40)):
            out = str(tmp_path / f"attribs{steps}")
            assert run(["attribute", "--frames", store, "--out", out, "--steps", steps]) == 0
            assert os.listdir(out)


def xc_flag(flag, value):
    return ["xc", "--frames", "missing", "--attribs", "a", "--out", "f.csv", flag, value]


@pytest.mark.parametrize("argv, needle", [
    (["eval", "--features", "missing.csv", "--group-by", "bogus"],
     "unknown grouping keys: ['bogus']"),
    (["train-meta", "--features", "missing.csv", "--subset", "volume"],
     "unknown meta features: ['volume']"),
    (["attribute", "--frames", "missing", "--out", "a", "--jobs", "0"], "--jobs must be >= 1"),
    (["attribute", "--frames", "missing", "--out", "a", "--method", "ig", "--steps", "0"],
     "steps must be >= 1, got 0"),
    (["attribute", "--frames", "missing", "--out", "a", "--method", "ig", "--steps", "70000"],
     "steps must be <= 65536, got 70000"),
    (xc_flag("--iou", "car=2"), "iou_thresh['car'] must be in (0, 1], got 2.0"),
    (xc_flag("--iou", "car=abc"), "--iou threshold for 'car' is not a number"),
    (xc_flag("--a-thresh", "-1"), "a_thresh must be finite and >= 0, got -1.0"),
    (xc_flag("--a-thresh", "nan"), "a_thresh must be finite and >= 0, got nan"),
    (xc_flag("--a-thresh", "inf"), "a_thresh must be finite and >= 0, got inf"),
    (xc_flag("--margin", "nan"), "margin_m must be finite and >= 0, got nan"),
    (xc_flag("--margin", "inf"), "margin_m must be finite and >= 0, got inf"),
    (["match", "--preds", "p", "--gts", "g", "--out", "t", "--score-thresh", "2"],
     "score_thresh must be in [0, 1], got 2.0"),
], ids=["eval-group-by", "train-meta-subset", "attribute-jobs", "attribute-steps",
        "attribute-steps-past-bound", "xc-iou-above-1", "xc-iou-not-a-number",
        "xc-a-thresh-negative", "xc-a-thresh-nan", "xc-a-thresh-inf", "xc-margin-nan",
        "xc-margin-inf", "match-score-thresh"])
def test_flags_checked_before_reading(refused, argv, needle):
    refused(argv, None, needle)


@pytest.mark.parametrize("argv, config, needle", [
    (["synth", "--out", "s", "--frames", str(2**40)], None,
     "frame count must be in [1, 65536], got 1099511627776"),
    (["attribute", "--frames", "s", "--out", "a", "--method", "ig", "--steps", str(2**40)], None,
     "steps must be <= 65536, got 1099511627776"),
    (PIPELINE, {"n_frames": 2**40}, "frame count must be in [1, 65536], got 1099511627776"),
    (PIPELINE, {"n_frames": 0}, "frame count must be in [1, 65536], got 0"),
    (PIPELINE, {"attribute": {"method": "ig-nomult", "steps": 2**40}},
     "steps must be <= 65536, got 1099511627776"),
    (PIPELINE, {"xc": {"iou": "car=0.5"}}, "xc.iou has no threshold for class 'pedestrian'"),
], ids=["synth-frames", "attribute-steps", "pipeline-n-frames", "pipeline-no-frames",
        "pipeline-steps", "pipeline-iou-class"])
def test_counts_and_classes_checked_before_writing(refused, argv, config, needle):
    # a huge count is rejected before any array of that length exists
    refused(argv, config, needle)


@pytest.mark.parametrize("name, text, argv, needle", [
    ("spec.json", {"concentration_profile": {"tp_inside": 0}}, SYNTH_SPEC,
     "PlacementFailure: spec.json: anchor block too crowded"),
    ("cfg.json", {"out": "run", "n_frames": 2, "scene": {"rng_seed": 3}}, PIPELINE,
     "InsufficientRows: cfg.json: run/features.csv: class 0 has fewer rows than folds (5)"),
], ids=["synth-spec", "pipeline-train-meta"])
def test_run_time_errors_name_the_file(tmp_path, monkeypatch, capsys, name, text, argv, needle):
    # a spec or config that passes every check can still fail once the run starts
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps(text))
    assert run(argv) == 1
    assert needle in capsys.readouterr().err


class TestXcAndMatch:
    def test_feature_rows_written(self, tmp_path):
        store = make_store(tmp_path, frames=3)
        attribs = str(tmp_path / "attribs")
        run(["attribute", "--frames", store, "--out", attribs])
        csv_path = str(tmp_path / "features.csv")
        assert run(
            ["xc", "--frames", store, "--attribs", attribs,
             "--a-thresh", "0.0015", "--out", csv_path]
        ) == 0
        rows = read_feature_csv(csv_path)
        n_preds = sum(1 for _ in open(os.path.join(store, "preds.jsonl")))
        assert len(rows) == n_preds  # all synthetic scores clear the ignore bar

    @pytest.mark.parametrize("method", ["backprop", "ig"])
    def test_frame_without_predictions(self, tmp_path, method):
        # the store keeps a frame whose prediction lines are gone; it gets no maps
        store = make_store(tmp_path, frames=3)
        preds = os.path.join(store, "preds.jsonl")
        kept = [line for line in open(preds) if json.loads(line)["frame_id"] != "000001"]
        assert 0 < len(kept) < sum(1 for _ in open(preds))
        with open(preds, "w") as f:
            f.writelines(kept)
        attribs = str(tmp_path / "attribs")
        assert run(["attribute", "--frames", store, "--out", attribs, "--method", method,
                    "--steps", "4"]) == 0
        assert len(os.listdir(attribs)) == len(kept)
        assert not any(name.startswith("000001_") for name in os.listdir(attribs))
        csv_path = str(tmp_path / "features.csv")
        assert run(["xc", "--frames", store, "--attribs", attribs,
                    "--a-thresh", "0.0015", "--out", csv_path]) == 0
        assert len(read_feature_csv(csv_path)) == len(kept)

    def test_missing_map_is_data_error(self, tmp_path):
        store = make_store(tmp_path, frames=2)
        attribs = str(tmp_path / "attribs")
        run(["attribute", "--frames", store, "--out", attribs])
        os.remove(os.path.join(attribs, sorted(os.listdir(attribs))[0]))
        assert run(
            ["xc", "--frames", store, "--attribs", attribs, "--out", str(tmp_path / "f.csv")]
        ) == 1

    def test_match_tags_every_prediction(self, tmp_path):
        store = make_store(tmp_path, frames=4)
        out = str(tmp_path / "tags.jsonl")
        assert run(
            ["match", "--preds", os.path.join(store, "preds.jsonl"),
             "--gts", os.path.join(store, "gts.jsonl"), "--out", out]
        ) == 0
        tags = [json.loads(l) for l in open(out)]
        n_preds = sum(1 for _ in open(os.path.join(store, "preds.jsonl")))
        assert len(tags) == n_preds
        assert all(t["tag"] in ("TP", "FP", "Ignore") for t in tags)
        assert all(t["tag"] != "Ignore" for t in tags)  # planted scores are high

    def test_bad_iou_flag_exits_2(self, tmp_path):
        store = make_store(tmp_path, frames=1)
        assert run(
            ["match", "--preds", os.path.join(store, "preds.jsonl"),
             "--gts", os.path.join(store, "gts.jsonl"),
             "--iou", "car:0.5", "--out", str(tmp_path / "t")]
        ) == 2


class TestEval:
    def test_oracle_feature_scores_one(self, tmp_path, capsys):
        csv_path = str(tmp_path / "f.csv")
        write_feature_csv(csv_path, oracle_rows())
        assert run(["eval", "--features", csv_path]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("top_score"))
        assert "1.000" in line

    def test_group_by_rows_present(self, tmp_path, capsys):
        store = make_store(tmp_path, frames=4)
        attribs = str(tmp_path / "attribs")
        run(["attribute", "--frames", store, "--out", attribs])
        csv_path = str(tmp_path / "f.csv")
        run(["xc", "--frames", store, "--attribs", attribs,
             "--a-thresh", "0.0015", "--out", csv_path])
        table_path = str(tmp_path / "table.txt")
        assert run(
            ["eval", "--features", csv_path, "--group-by", "class,points100",
             "--out", table_path]
        ) == 0
        text = open(table_path).read()
        assert "feature" in text and "AUROC" in text
        assert "car," in text

    def test_unknown_group_token_exits_2(self, tmp_path):
        csv_path = str(tmp_path / "f.csv")
        write_feature_csv(csv_path, oracle_rows())
        assert run(["eval", "--features", csv_path, "--group-by", "color"]) == 2

    def test_skipped_groups_reported_on_stderr(self, tmp_path, capsys):
        # the pedestrian group holds only TPs, so every feature skips it
        rows = oracle_rows() + [
            replace(r, pred_label="pedestrian") for r in oracle_rows(n=6) if r.is_tp
        ]
        csv_path = str(tmp_path / "f.csv")
        write_feature_csv(csv_path, rows)
        assert run(["eval", "--features", csv_path, "--group-by", "class"]) == 0
        captured = capsys.readouterr()
        skipped = captured.err.splitlines()
        assert len(skipped) == len(EVAL_FEATURES)
        for feature, line in zip(EVAL_FEATURES, skipped):
            assert line.startswith(f"eval: skipped feature {feature!r} in group 'pedestrian': ")
            assert "DegenerateClassBalance: need both classes, got 3 pos / 0 neg" in line
        assert "pedestrian" not in captured.out

    def test_missing_csv_is_data_error(self, tmp_path):
        assert run(["eval", "--features", str(tmp_path / "nope.csv")]) == 1


class TestTrainMeta:
    def test_report_written(self, tmp_path, capsys):
        csv_path = str(tmp_path / "f.csv")
        write_feature_csv(csv_path, oracle_rows(n=120))
        report = str(tmp_path / "report.txt")
        assert run(
            ["train-meta", "--features", csv_path, "--subset", "top_score",
             "--seed", "0", "--out", report]
        ) == 0
        text = open(report).read()
        assert "auroc:" in text and "features: top_score" in text

    def test_unknown_subset_exits_2(self, tmp_path):
        csv_path = str(tmp_path / "f.csv")
        write_feature_csv(csv_path, oracle_rows())
        assert run(["train-meta", "--features", csv_path, "--subset", "volume"]) == 2

    def test_subset_order_irrelevant(self, tmp_path, capsys):
        csv_path = str(tmp_path / "f.csv")
        write_feature_csv(csv_path, oracle_rows(n=120))
        assert run(["train-meta", "--features", csv_path,
                    "--subset", "top_score,xc_c_plus"]) == 0
        a = capsys.readouterr().out
        assert run(["train-meta", "--features", csv_path,
                    "--subset", "xc_c_plus,top_score"]) == 0
        b = capsys.readouterr().out
        assert a == b


class TestPipeline:
    def test_demo_pipeline_completes(self, tmp_path, capsys):
        cfg = tmp_path / "demo.json"
        cfg.write_text(
            json.dumps(
                {
                    "out": str(tmp_path / "pipe"),
                    "scene": {"rng_seed": 42},
                    "n_frames": 20,
                    "eval": {"group_by": "class,points100", "seed": 0},
                    "train_meta": {"seed": 0},
                }
            )
        )
        assert run(["pipeline", "--config", str(cfg)]) == 0
        out_dir = tmp_path / "pipe"
        for rel in ("store", "attribs", "features.csv", "table.txt",
                    "tags.jsonl", "meta_report.txt"):
            assert (out_dir / rel).exists()
        table = (out_dir / "table.txt").read_text()
        for feature in ("top_score", "xc_s_plus", "xc_c_minus", "n_points", "random"):
            assert feature in table
        assert "AUROC" in table

    def test_pipeline_deterministic(self, tmp_path):
        results = []
        for name in ("p1", "p2"):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(
                json.dumps(
                    {
                        "out": str(tmp_path / name),
                        "scene": {"rng_seed": 7},
                        "n_frames": 4,
                        "train_meta": {"enabled": False},
                    }
                )
            )
            assert run(["pipeline", "--config", str(cfg)]) == 0
            results.append((tmp_path / name / "features.csv").read_bytes())
        assert results[0] == results[1]

    @pytest.mark.parametrize("section, needle", [
        ({"scene": {"rng_seed": -1}}, "rng_seed must be a non-negative integer, got -1"),
        ({"eval": {"seed": -3}}, "seed must be a non-negative integer, got -3"),
    ], ids=["scene-rng-seed", "eval-seed"])
    def test_negative_seed_rejected_before_writing(self, refused, section, needle):
        refused(PIPELINE, section, needle)

    @pytest.mark.parametrize("xc, needle", [
        ({"a_thresh": float("nan")}, "a_thresh must be finite and >= 0, got nan"),
        ({"score_thresh": 2}, "score_thresh must be in [0, 1], got 2.0"),
    ], ids=["a-thresh-nan", "score-thresh-2"])
    def test_xc_thresholds_checked_before_writing(self, refused, xc, needle):
        refused(PIPELINE, {"xc": xc}, needle)

    @pytest.mark.parametrize("config, needle", [
        ({"attribute": {"method": "ig", "steps": 0}}, "steps must be >= 1, got 0"),
        ({"attribute": {"jobs": 0}}, "--jobs must be >= 1"),
        ({"eval": {"group_by": "bogus"}}, "unknown grouping keys: ['bogus']"),
        ({"train_meta": {"subset": "bogus"}}, "unknown meta features: ['bogus']"),
        ({"train_meta": {"subset": ["top_score"]}},
         "subset must be of type str, got ['top_score']"),
        ({"attribute": {"steps": "abc"}}, "steps must be of type int, got 'abc'"),
        ({"attribute": {"mehtod": "ig"}}, "config key 'mehtod' is not a flag of attribute"),
        ({"atribute": {"method": "ig"}}, "unknown pipeline config key 'atribute'"),
        ({"out": None, "scene": {}}, "pipeline config needs an 'out' directory"),
    ], ids=["attribute-steps", "attribute-jobs", "eval-group-by", "train-meta-subset",
            "train-meta-subset-list", "attribute-steps-string", "section-key-typo",
            "top-level-key-typo", "no-out"])
    def test_stage_flags_checked_before_writing(self, refused, config, needle):
        refused(PIPELINE, config, needle)

    def test_sections_take_every_stage_flag(self, tmp_path):
        # score_thresh above every prediction's score ignores them all, so no rows are written
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "pipe"), "n_frames": 2,
                                   "xc": {"score_thresh": 1.0},
                                   "train_meta": {"enabled": False}}))
        assert run(["pipeline", "--config", str(cfg)]) == 0
        assert read_feature_csv(tmp_path / "pipe" / "features.csv") == []
        # the match stage tags under the same thresholds, so it ignores them all too
        tags = [json.loads(line)["tag"]
                for line in (tmp_path / "pipe" / "tags.jsonl").read_text().splitlines()]
        assert tags and set(tags) == {"Ignore"}

    def test_pipeline_bad_json_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert run(["pipeline", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.count("c.json") == 1  # named once, by the JSON reader
