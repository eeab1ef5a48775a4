import base64
import json
import os
import re
import struct
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import xckit.io_formats
from xckit.attribution import AttributionMap, AttributionTarget
from xckit.autodiff import build_model, forward_array, model_to_spec
from xckit.errors import (
    BadMagic, ParseError, ShapeMismatch, TruncatedPayload, VersionUnsupported, XckitError)
from xckit.geometry import Box3D
from xckit.io_formats import (
    FEATURE_CSV_COLUMNS,
    FeatureRow,
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
from xckit.matching import Detection, GroundTruth
from xckit.synth import (
    CLASSES,
    DEFAULT_SIZE_RANGES,
    SceneSpec,
    build_toy_model,
    generate_frame,
    load_scene_spec,
    save_scene_spec,
    scene_spec_from_dict,
)


def f32_map(rng, shape):
    # float32-representable float64 values, so payload round-trips bit-exactly
    vals = rng.standard_normal(shape).astype(np.float32).astype(np.float64)
    return AttributionMap(
        values=vals,
        method="integrated-gradients",
        target=AttributionTarget(box_index=3, class_index=1),
        steps=32,
    )


class TestXcam:
    def test_single_value_payload_bytes(self, tmp_path):
        p = tmp_path / "m.xcam"
        m = AttributionMap(values=np.full((1, 1, 1), 0.5), method="saliency")
        write_xcam(p, m)
        raw = p.read_bytes()
        assert raw[:4] == b"XCAM"
        version, h, w, c = struct.unpack_from("<HIII", raw, 4)
        assert (version, h, w, c) == (1, 1, 1, 1)
        assert raw[18:22] == bytes([0x00, 0x00, 0x00, 0x3F])

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        for shape in [(1, 1, 1), (4, 7, 3), (64, 64, 8)]:
            p = tmp_path / "m.xcam"
            m = f32_map(rng, shape)
            write_xcam(p, m)
            back = read_xcam(p)
            assert back.values.dtype == np.float64
            assert np.array_equal(back.values, m.values)
            assert back.values.tobytes() == m.values.tobytes()
            assert back.method == m.method
            assert back.steps == m.steps
            assert back.target == m.target

    def test_no_target_no_steps(self, tmp_path):
        p = tmp_path / "m.xcam"
        write_xcam(p, AttributionMap(values=np.zeros((2, 2, 1)), method="saliency"))
        back = read_xcam(p)
        assert back.method == "saliency" and back.target is None and back.steps is None

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.xcam"
        write_xcam(p, f32_map(np.random.default_rng(1), (2, 2, 2)))
        raw = bytearray(p.read_bytes())
        raw[:4] = b"MAXC"
        p.write_bytes(bytes(raw))
        with pytest.raises(BadMagic):
            read_xcam(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "m.xcam"
        write_xcam(p, f32_map(np.random.default_rng(1), (2, 2, 2)))
        raw = bytearray(p.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        p.write_bytes(bytes(raw))
        with pytest.raises(VersionUnsupported):
            read_xcam(p)

    def test_payload_one_float_short(self, tmp_path):
        p = tmp_path / "m.xcam"
        m = f32_map(np.random.default_rng(2), (3, 3, 2))
        write_xcam(p, m)
        raw = p.read_bytes()
        # drop the metadata block and the last payload float entirely
        p.write_bytes(raw[: 18 + 4 * (3 * 3 * 2 - 1)])
        with pytest.raises(TruncatedPayload):
            read_xcam(p)

    def test_truncated_metadata(self, tmp_path):
        p = tmp_path / "m.xcam"
        write_xcam(p, f32_map(np.random.default_rng(3), (2, 2, 1)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-3])
        with pytest.raises(TruncatedPayload):
            read_xcam(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.xcam"
        p.write_bytes(b"")
        with pytest.raises(TruncatedPayload):
            read_xcam(p)

    def test_non_3d_rejected(self, tmp_path):
        with pytest.raises(XckitError):
            write_xcam(tmp_path / "m.xcam", AttributionMap(values=np.zeros((4, 4)), method="s"))

    def test_expected_shape_checked(self, tmp_path):
        p = tmp_path / "m.xcam"
        write_xcam(p, AttributionMap(values=np.zeros((2, 3, 4)), method="s"))
        assert read_xcam(p, (2, 3, 4)).values.shape == (2, 3, 4)
        with pytest.raises(ShapeMismatch, match=r"m.xcam: byte offset 6: shape \(2, 3, 4\) != "
                                                r"expected \(3, 2, 4\)"):
            read_xcam(p, (3, 2, 4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_offset(self, tmp_path, value):
        values = np.zeros((2, 3, 4))
        values[1, 0, 2] = value  # the 15th float: 18 header bytes + 4 * 14
        p = tmp_path / "m.xcam"
        write_xcam(p, AttributionMap(values=values, method="s"))
        with pytest.raises(XckitError, match="m.xcam: byte offset 74: value is not finite"):
            read_xcam(p)


def make_detection(rng, label="car"):
    return Detection(
        box=Box3D(
            cx=float(rng.uniform(-20, 20)), cy=float(rng.uniform(-20, 20)),
            cz=float(rng.uniform(-2, 2)), dx=float(rng.uniform(0.5, 5)),
            dy=float(rng.uniform(0.5, 3)), dz=float(rng.uniform(0.5, 2)),
            yaw=float(rng.uniform(-3.1, 3.1)),
        ),
        label=label,
        scores={"car": float(rng.uniform()), "pedestrian": float(rng.uniform())},
        n_points=int(rng.integers(0, 500)),
        distance=float(rng.uniform(0, 80)) if rng.random() < 0.5 else None,
    )


class TestDetectionStream:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_detections(p, [])
        assert list(read_detections(p)) == []

    def test_round_trip_1000_records(self, tmp_path):
        rng = np.random.default_rng(7)
        recs = [(f"f{i:04d}", make_detection(rng)) for i in range(1000)]
        p = tmp_path / "d.jsonl"
        write_detections(p, recs)
        back = list(read_detections(p))
        assert len(back) == 1000
        for (fa, a), (fb, b) in zip(recs, back):
            assert fa == fb
            assert a.box == b.box  # exact float equality
            assert a.scores == b.scores
            assert a.n_points == b.n_points
            assert a.distance == b.distance
            assert a.label == b.label

    def test_six_element_box_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        rng = np.random.default_rng(1)
        write_detections(p, [("a", make_detection(rng))] * 2)
        lines = p.read_text().splitlines()
        row = json.loads(lines[1])
        row["box"] = row["box"][:6]
        lines[1] = json.dumps(row)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            list(read_detections(p))
        assert exc.value.line_no == 2
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("field, value", [
        ("scores", {"car": "abc"}), ("n_points", "many"), ("distance", "far"),
        ("anchor_index", "3"), ("anchor_index", True), ("anchor_index", 1.5),
        ("scores", {"car": float("nan")}), ("distance", float("inf")), ("n_points", 3.7),
        ("n_points", "12"), ("n_points", -1), ("n_points", True),
        ("scores", {"car": "0.9"}), ("scores", {"car": True}), ("distance", "12"),
        ("box", [0.0, 0.0, 0.0, 4.0, 1.8, 1.6, "0"]), ("box", [True, 0.0, 0.0, 4.0, 1.8, 1.6, 0.0]),
    ])
    def test_bad_field_value_names_line(self, tmp_path, field, value):
        p = tmp_path / "d.jsonl"
        rng = np.random.default_rng(4)
        write_detections(p, [("a", make_detection(rng))] * 2)
        lines = p.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), field: value})
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            list(read_detections(p))
        assert exc.value.line_no == 2

    def test_bad_json_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"frame_id": "a"}\nnot json at all\n')
        with pytest.raises(ParseError) as exc:
            list(read_detections(p))
        # line 1 fails first: record is valid JSON but lacks required fields
        assert exc.value.line_no == 1

    def test_missing_field_reported(self, tmp_path):
        rng = np.random.default_rng(2)
        p = tmp_path / "d.jsonl"
        write_detections(p, [("x", make_detection(rng))])
        row = json.loads(p.read_text())
        del row["n_points"]
        p.write_text(json.dumps(row) + "\n")
        with pytest.raises(ParseError) as exc:
            list(read_detections(p))
        assert "n_points" in str(exc.value)

    def test_blank_lines_skipped(self, tmp_path):
        rng = np.random.default_rng(3)
        rec = ("x", make_detection(rng))
        p = tmp_path / "d.jsonl"
        write_detections(p, [rec])
        p.write_text("\n" + p.read_text() + "\n\n")
        assert len(list(read_detections(p))) == 1

    def test_streaming_is_lazy(self, tmp_path):
        rng = np.random.default_rng(4)
        p = tmp_path / "d.jsonl"
        write_detections(p, [("x", make_detection(rng))] * 5)
        it = read_detections(p)
        assert next(it)[0] == "x"
        it.close()


class TestGroundTruthStream:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        pairs = [
            ("f0", GroundTruth(box=make_detection(rng).box, label="car")),
            ("f1", GroundTruth(box=make_detection(rng).box, label="cyclist")),
        ]
        p = tmp_path / "g.jsonl"
        write_ground_truths(p, pairs)
        back = list(read_ground_truths(p))
        assert back == pairs

    def test_missing_label(self, tmp_path):
        p = tmp_path / "g.jsonl"
        p.write_text('{"frame_id": "a", "box": [0,0,0,1,1,1,0]}\n')
        with pytest.raises(ParseError) as exc:
            list(read_ground_truths(p))
        assert exc.value.line_no == 1


class TestFeatureCsv:
    def rows(self, n=50, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            out.append(
                FeatureRow(
                    top_score=float(rng.uniform()),
                    xc_s_plus=float(rng.uniform()), xc_c_plus=float(rng.uniform()),
                    xc_s_minus=float(rng.uniform()), xc_c_minus=float(rng.uniform()),
                    xc_s_plus_valid=bool(rng.integers(2)),
                    xc_c_plus_valid=bool(rng.integers(2)),
                    xc_s_minus_valid=bool(rng.integers(2)),
                    xc_c_minus_valid=bool(rng.integers(2)),
                    n_points=int(rng.integers(0, 1000)),
                    distance=float(rng.uniform(0, 100)),
                    pred_label=str(rng.choice(["car", "pedestrian", "cyclist"])),
                    is_tp=bool(rng.integers(2)),
                )
            )
        return out

    def test_round_trip_field_equal(self, tmp_path):
        rows = self.rows(200)
        p = tmp_path / "f.csv"
        write_feature_csv(p, rows)
        back = read_feature_csv(p)
        assert back == rows

    def test_header_fixed_order(self, tmp_path):
        p = tmp_path / "f.csv"
        write_feature_csv(p, self.rows(1))
        header = p.read_text().splitlines()[0]
        assert header == ",".join(FEATURE_CSV_COLUMNS)

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        write_feature_csv(p, self.rows(1))
        lines = p.read_text().splitlines()
        lines[0] = lines[0].replace("top_score", "topscore")
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_feature_csv(p)
        assert exc.value.line_no == 1

    def test_short_row_positioned(self, tmp_path):
        p = tmp_path / "f.csv"
        write_feature_csv(p, self.rows(3))
        lines = p.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:5])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_feature_csv(p)
        assert exc.value.line_no == 3

    def test_unparseable_number_positioned(self, tmp_path):
        p = tmp_path / "f.csv"
        write_feature_csv(p, self.rows(2))
        lines = p.read_text().splitlines()
        parts = lines[1].split(",")
        parts[0] = "not-a-float"
        lines[1] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_feature_csv(p)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("column, cell", [("xc_s_plus", "nan"), ("xc_c_minus", "inf"),
                                              ("distance", "-Infinity"), ("top_score", "NaN")])
    def test_non_finite_float_positioned(self, tmp_path, column, cell):
        p = tmp_path / "f.csv"
        write_feature_csv(p, self.rows(2))
        lines = p.read_text().splitlines()
        parts = lines[2].split(",")
        parts[FEATURE_CSV_COLUMNS.index(column)] = cell
        lines[2] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"f.csv: line 3: {column}: must be finite"):
            read_feature_csv(p)

    def test_empty_file_missing_header(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            read_feature_csv(p)


FINITE_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)  # subnormals and -0.0 too
F32_MAX = float(np.finfo(np.float32).max)
TINY = float(np.finfo(np.float32).smallest_subnormal)


@st.composite
def conv_dense_params(draw):
    """conv2d and dense weights and biases for a 2x2 input, each value any finite float32."""
    kh, kw = draw(st.sampled_from([1, 3])), draw(st.sampled_from([1, 3]))
    cin, cout, n_out = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shapes = ((kh, kw, cin, cout), (cout,), (4 * cout, n_out), (n_out,))
    return tuple(draw(arrays(np.float32, shape, elements=FINITE_F32)) for shape in shapes)


EXTREME_PARAMS = tuple(np.array(v, np.float32).reshape(shape) for v, shape in (
    ([-0.0, TINY], (1, 1, 1, 2)),
    ([-TINY, float(np.finfo(np.float32).smallest_normal)], (2,)),
    ([F32_MAX, -F32_MAX, 1.0, 0.0, -0.0, TINY, -TINY, F32_MAX], (8, 1)),
    ([-F32_MAX], (1,)),
))


class TestModelJson:
    def test_round_trip_same_outputs(self, tmp_path):
        grid_model = build_toy_model(SceneSpec().grid)
        p = tmp_path / "model.json"
        save_model(p, grid_model)
        back = load_model(p)
        x = np.random.default_rng(0).uniform(0, 1, (40, 40, 4)).astype(np.float32)
        assert np.array_equal(forward_array(grid_model, x), forward_array(back, x))

    def test_params_bit_equal(self, tmp_path):
        model = build_toy_model(SceneSpec().grid)
        p = tmp_path / "model.json"
        save_model(p, model)
        back = load_model(p)
        assert model_to_spec(back) == model_to_spec(model)

    def test_saved_bytes_are_one_json_document(self, tmp_path):
        model = build_toy_model(SceneSpec().grid)
        p = tmp_path / "model.json"
        save_model(p, model)
        assert p.read_bytes() == json.dumps(model_to_spec(model)).encode()

    def test_parameters_are_encoded_f32le(self, tmp_path):
        model = build_toy_model(SceneSpec().grid)
        save_model(tmp_path / "model.json", model)
        entries = json.loads((tmp_path / "model.json").read_text())["layers"]
        for entry, layer in zip(entries, model.layers):
            for key in ("weight", "bias") if "weight" in entry else ():
                arr = getattr(layer, key)
                assert entry[key]["shape"] == list(arr.shape)
                assert base64.b64decode(entry[key]["f32le"]) == arr.astype("<f4").tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(conv_dense_params())
    @example(EXTREME_PARAMS)
    def test_round_trip_bit_equal_for_any_finite_float32(self, params):
        conv_w, conv_b, dense_w, dense_b = params
        kh, kw, cin, cout = conv_w.shape
        model = build_model({"input_shape": [2, 2, cin], "layers": [
            {"kind": "conv2d", "in_channels": cin, "out_channels": cout, "kernel": [kh, kw],
             "weight": conv_w, "bias": conv_b},
            {"kind": "dense", "in_features": 4 * cout, "out_features": dense_w.shape[1],
             "weight": dense_w, "bias": dense_b}]})
        with tempfile.TemporaryDirectory() as d:  # not tmp_path: one directory per example
            path = os.path.join(d, "model.json")
            save_model(path, model)
            back = load_model(path)
        got = [a for layer in back.layers for a in (layer.weight, layer.bias)]
        for want, arr in zip(params, got):
            assert arr.dtype == np.float32 and arr.shape == want.shape
            assert np.array_equal(arr.view(np.uint32), want.view(np.uint32))

    def test_inline_list_model_loads_bit_equal(self, tmp_path):
        model = build_toy_model(SceneSpec().grid)
        spec = model_to_spec(model)
        for entry, layer in zip(spec["layers"], model.layers):
            if "weight" in entry:  # the nested-list form written before the encoding
                entry.update(weight=layer.weight.tolist(), bias=layer.bias.tolist())
        p = tmp_path / "model.json"
        p.write_text(json.dumps(spec))
        back = load_model(p)
        for old, new in zip(model.layers, back.layers):
            if hasattr(old, "weight"):
                assert np.array_equal(new.weight.view(np.uint32), old.weight.view(np.uint32))
                assert np.array_equal(new.bias.view(np.uint32), old.bias.view(np.uint32))

    @pytest.mark.parametrize("fail", ["dumps", "replace"])
    def test_failed_save_keeps_earlier_file(self, tmp_path, monkeypatch, fail):
        p = tmp_path / "model.json"
        save_model(p, build_toy_model(SceneSpec().grid))
        before = p.read_bytes()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        if fail == "dumps":
            monkeypatch.setattr(xckit.io_formats.json, "dumps", boom)
        else:  # the temp file is written in full, then the rename fails
            monkeypatch.setattr(xckit.io_formats.os, "replace", boom)
        small = build_model({"input_shape": [2], "seed": 0,
                             "layers": [{"kind": "dense", "in_features": 2, "out_features": 1}]})
        with pytest.raises(OSError, match="disk full"):
            save_model(p, small)
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.json"]


class TestSceneSpecJson:
    def test_round_trip(self, tmp_path):
        spec = SceneSpec(rng_seed=42, fp_rate=0.3, n_objects={"car": 3, "cyclist": 1})
        p = tmp_path / "scene.json"
        save_scene_spec(p, spec)
        back = load_scene_spec(p)
        assert asdict(back) == asdict(spec)
        a = generate_frame(spec)
        b = generate_frame(back)
        assert np.array_equal(a.pseudo_image, b.pseudo_image)

    def test_partial_dict_uses_defaults(self):
        spec = scene_spec_from_dict({"rng_seed": 9})
        assert spec.rng_seed == 9
        assert spec.fp_rate == SceneSpec().fp_rate

    def test_bad_spec_rejected(self, tmp_path):
        p = tmp_path / "scene.json"
        p.write_text('{"fp_rate": "lots"}')
        with pytest.raises(ParseError):
            load_scene_spec(p)

    @pytest.mark.parametrize("field, value", [
        ("rng_seed", 7.9), ("rng_seed", True), ("n_objects", {"car": 2.9}), ("fp_rate", "0.25"),
        ("points_base", True), ("size_ranges", {"car": [["3.9", 4.7], [1.6, 2.0], [1.4, 1.6]]}),
        ("grid", {**asdict(SceneSpec().grid), "origin_x": True}),
        ("grid", {**asdict(SceneSpec().grid), "pixel_size": "0.4"}),
        ("concentration_profile", {"tp_inside": True, "fp_inside": 0.3}),
        ("concentration_profile", {"tp_inside": 0.9, "fp_inside": "0.3"}),
    ])
    def test_field_of_wrong_json_type_rejected(self, tmp_path, field, value):
        p = tmp_path / "scene.json"
        p.write_text(json.dumps({field: value}))
        with pytest.raises(ParseError, match=f"scene.json: bad scene spec field '{field}'"):
            load_scene_spec(p)

    @pytest.mark.parametrize("fields, needle", [
        ({"size_ranges": {"car": DEFAULT_SIZE_RANGES["car"], "bus": [[1, 2]] * 3}},
         "size_ranges: unknown class 'bus'"),
        ({"size_ranges": {"car": DEFAULT_SIZE_RANGES["car"]}},
         "size_ranges: 'pedestrian' needs three (lo, hi) ranges"),
        ({"size_ranges": {**DEFAULT_SIZE_RANGES, "car": [[3.9], [1.6, 2.0], [1.4, 1.6]]}},
         "size_ranges: 'car' needs three (lo, hi) ranges with 0 < lo <= hi"),
        ({"size_ranges": {**DEFAULT_SIZE_RANGES, "cyclist": [[0, 2], [0.5, 0.7], [1.6, 1.8]]}},
         "size_ranges: 'cyclist' needs three (lo, hi) ranges with 0 < lo <= hi"),
        ({"size_ranges": {**DEFAULT_SIZE_RANGES, "car": [[3.9, 4.7], [1.6, 2.0]]}},
         "size_ranges: 'car' needs three (lo, hi) ranges with 0 < lo <= hi"),
        ({"points_delta": -1}, "points_delta must be >= 0, got -1"),
    ], ids=["unknown-size-ranges-class", "size-ranges-missing-class", "range-one-number",
            "range-zero-lo", "two-ranges", "points-delta-negative"])
    def test_unusable_field_rejected(self, tmp_path, fields, needle):
        # each would be ignored, or die in numpy's sampler, if it got through; the unknown
        # field and n_objects class and the reversed range are rows of test_cli's table
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(fields))
        with pytest.raises(ParseError, match=re.escape(f"scene.json: {needle}")):
            load_scene_spec(p)

    def test_int_stands_for_float(self):
        spec = scene_spec_from_dict({"fp_rate": 0,
                                     "size_ranges": {c: [[4, 5], [2, 2], [1, 2]] for c in CLASSES},
                                     "grid": {**asdict(SceneSpec().grid), "origin_x": -8},
                                     "concentration_profile": {"tp_inside": 1}})
        assert type(spec.fp_rate) is float and spec.size_ranges["car"][0] == (4.0, 5.0)
        assert type(spec.grid.origin_x) is float and type(spec.grid.height) is int
        assert type(spec.concentration_profile.tp_inside) is float

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "scene.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(ParseError):
            load_scene_spec(p)
