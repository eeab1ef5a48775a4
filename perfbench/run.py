"""xckit pipeline benchmark.

    python3 perfbench/run.py --workload readme-ig32 --seed 3 --seconds 40 --trace 0

Run from the root of an xckit checkout. The benchmark synthesizes a frame
store from ``--seed`` and runs attribute -> xc -> match -> eval -> train-meta
on it through ``xckit.cli.main``, each workload in child processes with BLAS
pinned to one thread.

``--trace 0`` sets up the store three times (each in a fresh process, so
``setup_s`` includes importing xckit), then repeats the pipeline for
``--seconds`` and reports the end-to-end metrics. ``--trace 1`` runs an
untraced, a traced and another untraced pass plus a layer microbench and
reports the per-layer metrics; spans go to ``.perfbench/traces/``. Every
pass's outputs are checked. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run environment.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, children included, ends within this

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "dets_per_s": "1/s", "peak_rss_mb": "MB",
    "ops_ok_share": "ratio", "meta_aupr": "ratio", "xc_auroc_min": "ratio",
}


def per_layer_unit(name: str) -> str:
    base = name.removesuffix(".p90") + "."
    for marker, unit in (("_ms.", "ms"), ("_us.", "us"), ("_s.", "s"), ("_bytes.", "bytes")):
        if marker in base:
            return unit
    return "ratio" if name == "cli.coverage" else "count"


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["XCKIT_JOBS"] = "1"
    return env


def run_child(root: str, mode: str, args: dict, deadline: float) -> dict:
    """Run one child to completion and return its JSON result.

    Output goes to files in ``args["dir"]``. The child is killed and reaped
    before this returns if it outlives the run's deadline.
    """
    log = os.path.join(args["dir"], mode)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, json.dumps(args)]
    with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=out, stderr=err)
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child did not finish before the run's deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    with open(log + ".out") as out, open(log + ".err") as err:
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def environment(root: str) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy has no dict mode; the record stays partial
        pass
    sha = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        sha = proc.stdout.strip() or sha
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "xckit", "*.py")):
        with open(path) as f:
            src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": child_env(root)["OPENBLAS_NUM_THREADS"],
        "git_sha": sha, "src_lines": src_lines,
    }


OPS = ("maps", "rows", "eval_groups", "cv_calls")


def op_totals(pass_ops: list, frames_attempted: int, frames_failed: int, checks: list):
    """Top-line (attempted, failed), and (attempted, unsuccessful) of the worst pass.

    A pass's operations are the frames synthesized, maps, feature rows,
    eval groups and the CV call. Placement failures and eval groups skipped
    for holding one class are properties of the generated inputs: they count
    as unsuccessful in ``ops_ok_share`` but stay out of the top-line
    ``failed``, which counts pipeline failures and failed checks.
    """
    attempted = frames_attempted + len(checks)
    failed = sum(1 for c in checks if not c[1])
    worst = (1, 0)
    for ops in pass_ops:
        attempted += sum(ops[k][0] for k in OPS)
        failed += ops["maps"][1] + ops["rows"][1] + ops["cv_calls"][1] + ops["stage_failures"]
        n = frames_attempted + sum(ops[k][0] for k in OPS)
        bad = frames_failed + sum(ops[k][1] for k in OPS)
        if bad / n >= worst[1] / worst[0]:
            worst = (n, bad)
    return attempted, failed, worst


def run_untraced(root, workload, seed, seconds, work, deadline):
    base = {"workload": workload.name, "seed": seed}
    setups = []
    for i in range(SETUP_REPEATS):
        d = os.path.join(work, f"setup{i}")
        os.makedirs(d)
        setups.append(run_child(root, "setup", base | {"dir": d}, deadline))
        if i:  # the first store serves the pipeline
            shutil.rmtree(d)
    store_dir = os.path.join(work, "setup0")
    budget = deadline - time.monotonic() - 20.0
    res = run_child(root, "pipeline", base | {
        "dir": store_dir, "out": os.path.join(work, "out"), "seconds": seconds,
        "deadline_s": budget}, deadline)
    times = [p["pipeline_s"] for p in res["passes"]]
    pipeline_s = statistics.median(times)
    s0 = setups[0]
    attempted, failed, (n_ops, n_bad) = op_totals(res["pass_ops"], s0["frames_attempted"],
                                                  s0["frames_failed"], res["checks"])
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "pipeline_s": pipeline_s,
        "dets_per_s": res["rows"] / pipeline_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ok_share": (n_ops - n_bad) / n_ops,
        "meta_aupr": res["quality"]["meta_aupr"],
        "xc_auroc_min": res["quality"]["xc_auroc_min"],
    }
    detail = {
        "setup_s": [s["setup_s"] for s in setups],
        "import_s": [s["import_s"] for s in setups],
        "pipeline_s": times,
        "stage_s": {k: statistics.median(p["stage_s"].get(k, 0.0) for p in res["passes"])
                    for k in res["passes"][0]["stage_s"]},
        "frames": [s0["frames_attempted"], s0["frames_failed"]],
        "ops_per_pass": [n_ops, n_bad],
        "rows": res["rows"],
    }
    return metrics, END_TO_END_UNITS, res["checks"], attempted, failed, detail


def run_traced(root, workload, seed, work, deadline):
    trace_dir = os.path.join(root, ".perfbench", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    run_dir = os.path.join(work, "traced")
    os.makedirs(run_dir)
    res = run_child(root, "traced", {
        "workload": workload.name, "seed": seed, "dir": run_dir,
        "out": os.path.join(run_dir, "out"), "trace_dir": trace_dir}, deadline)
    s = res["setup"]
    attempted, failed, worst = op_totals(res["pass_ops"], s["frames_attempted"],
                                         s["frames_failed"], res["checks"])
    metrics = res["per_layer"]
    units = {k: per_layer_unit(k) for k in metrics}
    detail = {"frames": [s["frames_attempted"], s["frames_failed"]], "ops_per_pass": worst}
    return metrics, units, res["checks"], attempted, failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xckit", "cli.py")):
        print(f"error: {root} holds no xckit checkout (src/xckit/cli.py is missing)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench", f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            out = run_traced(root, workload, args.seed, work, deadline)
        else:
            out = run_untraced(root, workload, args.seed, args.seconds, work, deadline)
    except BenchError as e:
        print(f"error: {workload.name} seed {args.seed}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, units, checks, attempted, failed, detail = out

    for name, ok, text in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({text})", file=sys.stderr)
    print(f"{workload.name} seed {args.seed}: {json.dumps(detail)}", file=sys.stderr)
    missing = sorted(k for k, v in metrics.items() if v is None)
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    correct = failed == 0 and all(ok for _, ok, _ in checks)
    print(json.dumps({"environment": environment(root)}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
