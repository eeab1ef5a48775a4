"""Output checks for one pipeline pass.

Every check returns ``(name, ok, detail)``; the caller counts a failed check
as a failed operation. The checks are:

* maps, rows: one attribution map per prediction, one feature row per
  prediction that matching did not ignore;
* planted: every TP/FP tag equals the kind the generator planted, and so
  does every feature row's ``is_tp``;
* ig_completeness (method ``ig`` only): the map sums to
  F(x) - F(0) for its target output, within ``IG_COMPLETENESS_TOL``
  relative;
* reference (default seed only): features.csv, the eval table and the meta
  report equal the files recorded in ``perfbench/refs``. Text and counts
  must match exactly, floats within ``REF_REL_TOL`` relative.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Dict, List, Tuple

# The toy detector's relu gates open partway along the IG path, so the
# midpoint rule misses F(x) - F(0) by up to about one step's share of the
# path (1/32 at IG-32); seeds 0-5 of readme-ig32 peak at 2.2%. A broken
# path average misses by far more.
IG_COMPLETENESS_TOL = 0.05
REF_REL_TOL = 1e-12

Check = Tuple[str, bool, str]


def read_tags(path: str) -> Dict[Tuple[str, int], str]:
    with open(path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    return {(r["frame_id"], int(r["index"])): r["tag"] for r in recs}


def feature_rows(path: str) -> List[List[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def check_counts(n_preds: int, n_maps: int, tags: dict, rows: List[List[str]]) -> List[Check]:
    kept = sum(1 for t in tags.values() if t != "Ignore")
    n_rows = max(len(rows) - 1, 0)
    return [
        ("maps", n_maps == n_preds, f"{n_maps} maps for {n_preds} predictions"),
        ("rows", n_rows == kept, f"{n_rows} feature rows for {kept} kept predictions"),
    ]


def check_planted(planted: Dict[str, List[str]], tags: dict, rows: List[List[str]]) -> Check:
    expected = {(fid, i): kind for fid, kinds in planted.items() for i, kind in enumerate(kinds)}
    bad_tags = sorted(k for k in expected if tags.get(k) != expected[k])
    extra = sorted(set(tags) - set(expected))
    # rows follow frame order, then prediction order, skipping Ignored ones
    kept = [expected[k] for k in sorted(expected) if tags.get(k) != "Ignore"]
    is_tp = [r[12] for r in rows[1:]]
    bad_rows = sum(1 for a, b in zip(kept, is_tp) if (a == "TP") != (b == "1"))
    bad_rows += abs(len(kept) - len(is_tp))
    ok = not bad_tags and not extra and bad_rows == 0
    detail = (f"{len(bad_tags)} tags differ from planted kinds, {len(extra)} unplanted tags, "
              f"{bad_rows} rows with the wrong is_tp, over {len(expected)} predictions")
    return ("planted", ok, detail)


def check_ig_completeness(store: str, attribs: str) -> Check:
    import numpy as np
    from xckit.autodiff import forward_array
    from xckit.cli import read_frame_store
    from xckit.io_formats import load_model, read_xcam
    from xckit.synth import output_index

    _, fids, frames = read_frame_store(store)
    model = load_model(os.path.join(store, "model.json"))
    zero = np.zeros(model.input_shape)
    f0 = forward_array(model, zero).reshape(-1)
    worst, n = 0.0, 0
    for fid in fids:
        pseudo, preds, _ = frames[fid]
        fx = forward_array(model, pseudo.astype(np.float64)).reshape(-1)
        for i, pred in enumerate(preds):
            idx = output_index(pred.anchor_index, pred.label)
            delta = float(fx[idx] - f0[idx])
            total = float(read_xcam(os.path.join(attribs, f"{fid}_{i:03d}.xcam")).values.sum())
            worst = max(worst, abs(total - delta) / max(abs(delta), 1e-12))
            n += 1
    return ("ig_completeness", worst <= IG_COMPLETENESS_TOL,
            f"worst relative residual {worst:.3e} over {n} maps (tol {IG_COMPLETENESS_TOL})")


def _cells_equal(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=REF_REL_TOL, abs_tol=0.0)


def check_reference(ref: dict, outputs: Dict[str, str]) -> Check:
    problems = []
    got = list(csv.reader(io.StringIO(outputs["features_csv"])))
    want = list(csv.reader(io.StringIO(ref["features_csv"])))
    if len(got) != len(want) or (got and got[0] != want[0]):
        problems.append(f"features.csv has {len(got)} lines, reference {len(want)}")
    else:
        for line_no, (g, w) in enumerate(zip(got, want), start=1):
            if len(g) != len(w) or not all(_cells_equal(a, b) for a, b in zip(g, w)):
                problems.append(f"features.csv line {line_no} differs")
                break
    for key in ("table", "meta_report"):
        if outputs[key] != ref[key]:
            problems.append(f"{key} differs")
    return ("reference", not problems, "; ".join(problems) or "matches the recorded outputs")


def check_identical(first: Dict[str, str], later: List[Dict[str, str]]) -> Check:
    bad = [i for i, o in enumerate(later, start=2) if o != first]
    return ("repeatable", not bad,
            f"passes {bad} differ from pass 1" if bad else f"{len(later) + 1} passes identical")
