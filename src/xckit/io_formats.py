"""File formats: XCAM array containers, JSONL box streams, feature CSVs, configs.

An XCAM container holds named float32 arrays (all integers little-endian):

    offset  size  field
    0       4     magic b"XCAM"
    4       2     version (u16), currently 2; version 1 is refused
    6       4     table length n (u32)
    10      n     table, UTF-8 JSON: one {"name", "shape", "offset", "meta"} object per
                  array, padded with spaces so the payload starts on an 8-byte boundary
    10+n    ...   payload: each array's float32 values, little-endian, C order, at its
                  offset from the payload's start; the arrays tile the payload in table order

A pseudo image is one ``pseudo_image`` array; a map is one ``map`` array whose meta holds
its method, steps and target; a model's parameters are one array each, named as
``model_to_spec`` names them. Round-trips are bit-identical exactly when the values are
float32-representable; others are rounded once on write. Text formats use Python's
shortest round-trip float repr and are lossless. Files are written only by ``atomic_write``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import reprlib
import struct
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Iterator, List

import numpy as np

from .attribution import AttributionMap, AttributionTarget
from .autodiff import ModelGraph, build_model, model_to_spec
from .errors import (
    BadMagic, ParseError, ShapeMismatch, TruncatedPayload, VersionUnsupported, XckitError)
from .geometry import Box3D
from .matching import Detection, GroundTruth

XCAM_MAGIC = b"XCAM"
XCAM_VERSION = 2
_HEADER = struct.Struct("<4sHI")  # magic, version, table length


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


def write_arrays(path, arrays, meta=None) -> None:
    """Write ``arrays`` ({name: values}) to one XCAM container, each with its ``meta``
    object ({name: dict}, empty for a name it lacks)."""
    payloads = {name: np.asarray(values, dtype="<f4") for name, values in arrays.items()}
    table, offset = [], 0
    for name, values in payloads.items():
        table.append({"name": name, "shape": list(values.shape), "offset": offset,
                      "meta": (meta or {}).get(name, {})})
        offset += values.nbytes
    blob = json.dumps(table, separators=(",", ":")).encode("utf-8")
    blob += b" " * (-(_HEADER.size + len(blob)) % 8)  # the payload starts 8-byte aligned
    with atomic_write(path, "wb") as f:
        f.write(_HEADER.pack(XCAM_MAGIC, XCAM_VERSION, len(blob)) + blob)
        for values in payloads.values():
            f.write(values.tobytes())  # C order, whatever the array's own layout


def read_arrays(path, expect=None):
    """``({name: float32 array}, {name: meta})`` from the XCAM container at ``path``; the
    arrays are read-only views of the file's bytes, and every value must be finite. Given
    ``expect`` ({name: shape, or None for any}), it must hold exactly those arrays."""
    with open(path, "rb") as f:
        raw = f.read()
    at = f"{path}: byte offset"
    if len(raw) < _HEADER.size:
        raise TruncatedPayload(f"{at} 0: file is {len(raw)} bytes, header needs {_HEADER.size}")
    magic, version, n_table = _HEADER.unpack_from(raw)
    if magic != XCAM_MAGIC:
        raise BadMagic(f"{at} 0: magic {magic!r} != {XCAM_MAGIC!r}")
    if version != XCAM_VERSION:
        raise VersionUnsupported(f"{at} 4: version {version}, reader supports {XCAM_VERSION}")
    start, table_at = _HEADER.size + n_table, f"{at} {_HEADER.size}: table"
    if len(raw) < start:
        raise TruncatedPayload(f"{table_at} needs {n_table} bytes, has {len(raw) - _HEADER.size}")
    try:
        table = json.loads(raw[_HEADER.size : start].decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or past Python's limits
        table = None
    if not isinstance(table, list):
        raise XckitError(f"{table_at} is not a UTF-8 JSON array")
    arrays, meta, end = {}, {}, 0
    for i, entry in enumerate(table):
        where = f"{table_at} entry {i}"
        if not isinstance(entry, dict):
            raise XckitError(f"{where} is not an object")
        name, shape, offset = entry.get("name"), entry.get("shape"), entry.get("offset")
        if not isinstance(name, str) or name in arrays:
            raise XckitError(f"{where}: name must be a string no other entry has, "
                             f"got {reprlib.repr(name)}")
        if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
            raise XckitError(f"{where}: shape must be a list of non-negative integers, "
                             f"got {reprlib.repr(shape)}")
        if (want := (expect or {}).get(name)) is not None and tuple(shape) != want:
            raise ShapeMismatch(f"{where}: shape {tuple(shape)} != expected {want}")
        if type(offset) is not int or offset != end:  # so arrays neither overlap nor leave gaps
            raise XckitError(f"{where}: offset {reprlib.repr(offset)} != {end}, "
                             "the end of the array before it")
        if not isinstance(entry.get("meta"), dict):
            raise XckitError(f"{where}: meta must be an object")
        end = offset + 4 * math.prod(shape)
        if start + end > len(raw):
            raise TruncatedPayload(f"{at} {start + offset}: array {name!r} needs {end - offset} "
                                   f"bytes, the payload has {len(raw) - start - offset} left")
        values = np.frombuffer(raw, "<f4", (end - offset) // 4, start + offset).reshape(shape)
        if not (finite := np.isfinite(values)).all():
            raise XckitError(f"{at} {start + offset + 4 * int(np.argmin(finite))}: "
                             "value is not finite")
        arrays[name], meta[name] = values, entry["meta"]
    if start + end != len(raw):
        raise XckitError(f"{at} {start + end}: {len(raw) - start - end} bytes past the last array")
    if expect is not None and set(arrays) != set(expect):
        raise XckitError(f"{table_at} holds arrays {sorted(arrays)}, expected {sorted(expect)}")
    return arrays, meta


def write_xcam(path, map: AttributionMap) -> None:
    """``map`` as a container holding one ``map`` array, its meta the method, steps and target."""
    values = np.asarray(map.values)
    if values.ndim != 3:
        raise XckitError(f"xcam payload must be 3-d (H, W, C), got shape {values.shape}")
    meta = {"method": map.method}
    if map.steps is not None:
        meta["steps"] = int(map.steps)
    if map.target is not None:
        meta["target"] = asdict(map.target)  # box_index, class_index
    write_arrays(path, {"map": values}, {"map": meta})


def read_xcam(path, shape=None) -> AttributionMap:
    """The map at ``path``; its values must be finite, and of ``shape`` when one is given."""
    arrays, meta = read_arrays(path, {"map": None if shape is None else tuple(shape)})
    meta, target = meta["map"], None
    if "target" in meta:
        if not isinstance(t := meta["target"], dict):
            raise XckitError(f"{path}: byte offset {_HEADER.size}: table entry 0: meta has a "
                             "target that is not an object")
        target = AttributionTarget(t.get("box_index"), t.get("class_index"))
    return AttributionMap(arrays["map"].astype(np.float64), meta.get("method", "unknown"), target,
                          meta.get("steps"))


# --- JSONL box streams ---

def json_typed(value, kind=float):
    """``value`` if its type is exactly ``kind``, so never a bool; an int may stand for a float."""
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise TypeError(f"must be of type {kind.__name__}, got {value!r}")
    return value


def _read_count(value) -> int:
    """``value``, a point count: an int in [0, 2**53), the range that converts to float exactly."""
    if type(value) is not int or not 0 <= value < 2**53:
        raise ValueError(f"must be an integer in [0, 2**53), got {reprlib.repr(value)}")
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


def _json_fault(e) -> str:
    """Why ``json.loads`` refused a text: a syntax error, or a value past Python's limits."""
    if isinstance(e, json.JSONDecodeError):
        return e.msg
    if isinstance(e, RecursionError):
        return "arrays or objects nested too deep"
    return f"an integer has more than {sys.get_int_max_str_digits()} digits"


def _jsonl_records(path, keys) -> Iterator[tuple]:
    """(line number, record) per non-blank line: an object with a string frame_id and ``keys``."""
    with open(path, "rb") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except UnicodeDecodeError:
                raise ParseError(line_no, "record is not UTF-8", path)
            except (ValueError, RecursionError) as e:
                raise ParseError(line_no, f"bad record: {_json_fault(e)}", path)
            if not isinstance(row, dict):
                raise ParseError(line_no, "record must be a JSON object", path)
            for key in ("frame_id", *keys):
                if key not in row:
                    raise ParseError(line_no, f"missing field {key!r}", path)
            if type(row["frame_id"]) is not str:  # else 0 and "0" would be one frame
                raise ParseError(line_no, "frame_id must be a string, got "
                                 f"{reprlib.repr(row['frame_id'])}", path)
            yield line_no, row


def read_detections(path) -> Iterator[tuple]:
    """Stream (frame_id, Detection) pairs; malformed lines carry their number."""
    for line_no, row in _jsonl_records(path, ("box", "label", "scores", "n_points")):
        if not isinstance(row["scores"], dict):
            raise ParseError(line_no, "scores must be an object", path)
        try:
            scores = {str(k): json_typed(v) for k, v in row["scores"].items()}
            distance = None if row.get("distance") is None else json_typed(row["distance"])
            if not np.all(np.isfinite([*scores.values(), distance or 0.0])):
                raise ValueError(f"got {scores} and {distance}")
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(line_no, f"scores and distance must be finite numbers: {e}", path)
        try:
            n_points = _read_count(row["n_points"])
        except ValueError as e:
            raise ParseError(line_no, f"n_points {e}", path)
        anchor = row.get("anchor_index")
        if anchor is not None and type(anchor) is not int:
            raise ParseError(line_no, f"anchor_index must be an integer, got {anchor!r}", path)
        yield row["frame_id"], Detection(
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
    for line_no, row in _jsonl_records(path, ("box", "label")):
        yield row["frame_id"], GroundTruth(
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
    "int": (str, lambda cell: _read_count(int(cell))),
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
    except (ValueError, RecursionError) as e:
        raise ParseError(getattr(e, "lineno", None), f"bad JSON in {path}: {_json_fault(e)}")


def save_model(path, model: ModelGraph) -> None:
    """Write ``model``'s parameters to an XCAM container, then its layer list, which names the
    container, to ``path`` beside it; a failed save leaves ``path`` as it was."""
    spec, params = model_to_spec(model)
    name = os.path.splitext(os.path.basename(path))[0] + ".xcam"
    write_arrays(os.path.join(os.path.dirname(path), name), params)
    with atomic_write(path) as f:
        f.write(json.dumps({**spec, "params": name}))  # dumps runs the C encoder; dump does not


def load_model(path) -> ModelGraph:
    """The model at ``path``: its layer list, with parameters from the container its
    ``params`` names beside it, inline as nested lists, or drawn from its ``seed``."""
    spec = load_json(path)
    with naming(path):
        params = spec.get("params") if isinstance(spec, dict) else None
        if params is not None:
            if not isinstance(params, str):
                raise XckitError(f"params must name a file, got {reprlib.repr(params)}")
            params = read_arrays(os.path.join(os.path.dirname(path), params))[0]
        return build_model(spec, params)
