"""Print every benchmark metric, with its unit, for every workload.

    python3 perfbench/report.py [--seed 0] [--seconds 40]

Run from the root of an xckit checkout. For each workload this runs
perfbench/run.py once untraced (end-to-end metrics) and once traced
(per-layer metrics, tracing overhead), then prints one table. Takes a few
minutes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args()
    names = sorted(WORKLOADS)
    results = {(w, t): run(w, args.seed, args.seconds, t) for w in names for t in (0, 1)}
    metrics = {}
    for (w, _), res in results.items():
        for k, v in res["metrics"].items():
            metrics.setdefault(k, {"unit": v["unit"]})[w] = v["value"]
    width = max(len(k) for k in metrics)
    print(f"{'metric':{width}}  {'unit':6}" + "".join(f"  {w:>18}" for w in names))
    for k, row in metrics.items():
        cells = "".join(f"  {row[w]:18.6g}" if w in row else f"  {'-':>18}" for w in names)
        print(f"{k:{width}}  {row['unit']:6}{cells}")
    for (w, t), res in sorted(results.items()):
        print(f"{w} trace {t}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
