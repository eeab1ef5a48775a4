"""File formats: XCAM attribution maps, JSONL box streams, feature CSVs, configs.

XCAM layout (all integers little-endian):

    offset  size  field
    0       4     magic b"XCAM"
    4       2     version (u16), currently 1
    6       4     H (u32)
    10      4     W (u32)
    14      4     C (u32)
    18      4*H*W*C   payload, float32 little-endian, row-major (y, x, c)
    ...     4     metadata length (u32)
    ...     n     metadata, UTF-8 JSON: method, target box/class, ig steps

The payload is 32-bit by format definition, so round-trips are bit-identical
exactly when the map's values are float32-representable; higher-precision
values are rounded once on write. Text formats use Python's shortest
round-trip float repr and are lossless. Files are written only by ``atomic_write``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, List

import numpy as np

from .attribution import AttributionMap, AttributionTarget
from .autodiff import ModelGraph, build_model, model_to_spec
from .errors import (
    BadMagic, ParseError, ShapeMismatch, TruncatedPayload, VersionUnsupported, XckitError)
from .geometry import Box3D
from .matching import Detection, GroundTruth

XCAM_MAGIC = b"XCAM"
XCAM_VERSION = 1
_HEADER = struct.Struct("<4sHIII")


@contextmanager
def atomic_write(path, mode="w", **open_kwargs):
    """A temp file beside ``path``, renamed over it once the block completes; a block that
    raises removes it, so ``path`` is never half written."""
    tmp = f"{path}.{os.getpid()}.tmp"  # same directory, so os.replace is atomic
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@contextmanager
def naming(path):
    """Name ``path`` in front of the message of an XckitError raised in the block."""
    try:
        yield
    except XckitError as e:
        e.args = (f"{path}: {e}",)
        raise


def write_xcam(path, map: AttributionMap) -> None:
    values = np.asarray(map.values)
    if values.ndim != 3:
        raise XckitError(f"xcam payload must be 3-d (H, W, C), got shape {values.shape}")
    h, w, c = values.shape
    meta = {"method": map.method}
    if map.steps is not None:
        meta["steps"] = int(map.steps)
    if map.target is not None:
        meta["target"] = {
            "box_index": map.target.box_index,
            "class_index": map.target.class_index,
        }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(_HEADER.pack(XCAM_MAGIC, XCAM_VERSION, h, w, c))
        f.write(values.astype("<f4").tobytes(order="C"))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)


def read_xcam(path, shape=None) -> AttributionMap:
    """The map at ``path``; its values must be finite, and of ``shape`` when one is given."""
    with open(path, "rb") as f:
        raw = f.read()
    at = f"{path}: byte offset"
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(f"{at} 0: file is {len(raw)} bytes, header needs {_HEADER.size}")
    magic, version, h, w, c = _HEADER.unpack_from(raw)
    if magic != XCAM_MAGIC:
        raise BadMagic(f"{at} 0: magic {magic!r} != {XCAM_MAGIC!r}")
    if version != XCAM_VERSION:
        raise VersionUnsupported(f"{at} 4: version {version}, reader supports {XCAM_VERSION}")
    if shape is not None and (h, w, c) != tuple(shape):
        raise ShapeMismatch(f"{at} 6: shape {(h, w, c)} != expected {tuple(shape)}")
    n_payload = 4 * h * w * c
    offset = _HEADER.size
    if len(raw) < offset + n_payload + 4:
        raise TruncatedPayload(
            f"{at} {offset}: payload+metadata need {n_payload + 4} bytes after header, "
            f"have {len(raw) - offset}"
        )
    values = (
        np.frombuffer(raw, dtype="<f4", count=h * w * c, offset=offset)
        .reshape(h, w, c)
        .astype(np.float64)
    )
    if not np.isfinite(values).all():
        raise XckitError(f"{at} {offset + 4 * np.argmin(np.isfinite(values))}: value is not finite")
    offset += n_payload
    (meta_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if len(raw) < offset + meta_len:
        raise TruncatedPayload(
            f"{at} {offset}: metadata block needs {meta_len} bytes, has {len(raw) - offset}"
        )
    try:
        meta = json.loads(raw[offset : offset + meta_len].decode("utf-8"))
    except ValueError:  # UnicodeDecodeError or JSONDecodeError
        meta = None
    if not isinstance(meta, dict):
        raise XckitError(f"{path}: metadata at byte offset {offset} is not a UTF-8 JSON object")
    target = None
    if "target" in meta:
        if not isinstance(meta["target"], dict):
            raise XckitError(
                f"{path}: metadata at byte offset {offset} has a target that is not an object"
            )
        target = AttributionTarget(
            box_index=meta["target"].get("box_index"),
            class_index=meta["target"].get("class_index"),
        )
    return AttributionMap(
        values=values,
        method=meta.get("method", "unknown"),
        target=target,
        steps=meta.get("steps"),
    )


# --- JSONL box streams ---

def json_typed(value, kind=float):
    """``value`` if its type is exactly ``kind``, so never a bool; an int may stand for a float."""
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise TypeError(f"must be of type {kind.__name__}, got {value!r}")
    return value


def _box_to_list(box: Box3D) -> list:
    return [box.cx, box.cy, box.cz, box.dx, box.dy, box.dz, box.yaw]


def _box_from_list(vals, line_no, path) -> Box3D:
    if not isinstance(vals, list) or len(vals) != 7:
        raise ParseError(line_no, f"box must be a 7-element array, got {vals!r}", path)
    try:
        return Box3D(*[json_typed(v) for v in vals])
    except (TypeError, ValueError, XckitError) as e:
        raise ParseError(line_no, f"bad box: {e}", path)


def write_jsonl(path, rows: Iterable[dict]) -> None:
    """One JSON object per line."""
    with atomic_write(path) as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


def write_detections(path, records: Iterable[tuple]) -> None:
    """Write (frame_id, Detection) pairs as JSONL."""
    write_jsonl(path, ({
        "frame_id": frame_id, "box": _box_to_list(d.box), "label": d.label, "scores": d.scores,
        "n_points": d.n_points, "distance": d.distance,
        **({} if d.anchor_index is None else {"anchor_index": d.anchor_index}),
    } for frame_id, d in records))


def _jsonl_records(path, keys) -> Iterator[tuple]:
    """(line number, record) per non-blank line; each record is an object holding ``keys``."""
    with open(path, "rb") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(line_no, f"bad record: {e.msg}", path)
            except UnicodeDecodeError:
                raise ParseError(line_no, "record is not UTF-8", path)
            if not isinstance(row, dict):
                raise ParseError(line_no, "record must be a JSON object", path)
            for key in keys:
                if key not in row:
                    raise ParseError(line_no, f"missing field {key!r}", path)
            yield line_no, row


def read_detections(path) -> Iterator[tuple]:
    """Stream (frame_id, Detection) pairs; malformed lines carry their number."""
    for line_no, row in _jsonl_records(path, ("frame_id", "box", "label", "scores", "n_points")):
        if not isinstance(row["scores"], dict):
            raise ParseError(line_no, "scores must be an object", path)
        try:
            scores = {str(k): json_typed(v) for k, v in row["scores"].items()}
            distance = None if row.get("distance") is None else json_typed(row["distance"])
            if not np.all(np.isfinite([*scores.values(), distance or 0.0])):
                raise ValueError(f"got {scores} and {distance}")
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(line_no, f"scores and distance must be finite numbers: {e}", path)
        n_points, anchor = row["n_points"], row.get("anchor_index")
        if type(n_points) is not int or n_points < 0:
            raise ParseError(line_no, f"n_points must be an integer >= 0, got {n_points!r}", path)
        if anchor is not None and type(anchor) is not int:
            raise ParseError(line_no, f"anchor_index must be an integer, got {anchor!r}", path)
        yield str(row["frame_id"]), Detection(
            box=_box_from_list(row["box"], line_no, path),
            label=str(row["label"]),
            scores=scores,
            n_points=n_points,
            distance=distance,
            anchor_index=anchor,
        )


def write_ground_truths(path, records: Iterable[tuple]) -> None:
    """Write (frame_id, GroundTruth) pairs as JSONL."""
    write_jsonl(path, ({"frame_id": frame_id, "box": _box_to_list(gt.box), "label": gt.label}
                       for frame_id, gt in records))


def read_ground_truths(path) -> Iterator[tuple]:
    for line_no, row in _jsonl_records(path, ("frame_id", "box", "label")):
        yield str(row["frame_id"]), GroundTruth(
            box=_box_from_list(row["box"], line_no, path), label=str(row["label"])
        )


# --- feature dataset CSV ---

@dataclass
class FeatureRow:
    """One kept prediction's features plus its TP flag, as persisted.

    Undefined concentration ratios are stored as 0.0 with the matching
    validity flag cleared; the flags are not model inputs by default. The
    fields, in order, are the feature CSV's columns.
    """

    top_score: float
    xc_s_plus: float
    xc_c_plus: float
    xc_s_minus: float
    xc_c_minus: float
    xc_s_plus_valid: bool
    xc_c_plus_valid: bool
    xc_s_minus_valid: bool
    xc_c_minus_valid: bool
    n_points: int
    distance: float
    pred_label: str
    is_tp: bool


def _read_flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1, got {cell!r}")
    return cell == "1"


def _read_float(cell: str) -> float:
    if not np.isfinite(value := float(cell)):
        raise ValueError(f"must be finite, got {cell!r}")
    return value


# (write, read) per field annotation; floats use repr, so the round-trip is lossless
_CELL_CODECS = {
    "float": (repr, _read_float),
    "int": (str, int),
    "str": (str, str),
    "bool": (lambda v: str(int(v)), _read_flag),
}
_FEATURE_CODECS = [(f.name, *_CELL_CODECS[f.type]) for f in fields(FeatureRow)]
FEATURE_CSV_COLUMNS = [name for name, _, _ in _FEATURE_CODECS]


def write_feature_csv(path, rows: Iterable[FeatureRow]) -> None:
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(FEATURE_CSV_COLUMNS)
        for r in rows:
            writer.writerow([write(getattr(r, name)) for name, write, _ in _FEATURE_CODECS])


def _feature_row(rec, line_no, path) -> FeatureRow:
    if len(rec) != len(_FEATURE_CODECS):
        raise ParseError(line_no, f"expected {len(_FEATURE_CODECS)} fields, got {len(rec)}", path)
    values = {}
    for (name, _, read), cell in zip(_FEATURE_CODECS, rec):
        try:
            values[name] = read(cell)
        except ValueError as e:
            raise ParseError(line_no, f"{name}: {e}", path)
    return FeatureRow(**values)


def read_feature_csv(path) -> List[FeatureRow]:
    reader = csv.reader(io.StringIO(_read_utf8(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(1, "missing header row", path)
        if header != FEATURE_CSV_COLUMNS:
            raise ParseError(1, f"unexpected header {header!r}", path)
        return [_feature_row(rec, reader.line_num, path) for rec in reader]
    except csv.Error as e:
        raise ParseError(reader.line_num, str(e), path)


# --- config / model JSON ---

def _read_utf8(path) -> str:
    """The whole file as text; a byte that is not UTF-8 raises an error naming its offset."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise XckitError(f"{path}: byte offset {e.start} is not UTF-8")


def load_json(path):
    """Parse a UTF-8 JSON file; bad bytes or syntax raise errors naming the file."""
    text = _read_utf8(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, f"bad JSON in {path}: {e.msg}")


def save_model(path, model: ModelGraph) -> None:
    """Write ``model`` as one JSON document; a failed save leaves ``path`` as it was."""
    with atomic_write(path) as f:
        f.write(json.dumps(model_to_spec(model)))  # dumps runs the C encoder; dump does not


def load_model(path) -> ModelGraph:
    spec = load_json(path)
    with naming(path):
        return build_model(spec)
