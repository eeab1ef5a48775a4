"""Record the default-seed outputs that the benchmark's reference check compares to.

    PYTHONPATH=src python3 perfbench/record_refs.py [WORKLOAD ...]

Run it from the root of a checkout whose outputs are the reference (the
commit that introduced the benchmark). It writes perfbench/refs/<workload>.json.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import child  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def record(name: str) -> None:
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        store, out = os.path.join(tmp, "store"), os.path.join(tmp, "out")
        setup = child.synthesize(workload, DEFAULT_SEED, store)
        p = child.run_pass(workload, store, out, setup["a_thresh"])
        if any(p["rc"].values()):
            sys.exit(f"{name}: pipeline failed {p['rc']}")
        ref = {"workload": name, "seed": DEFAULT_SEED} | child.read_outputs(out)
    os.makedirs(child.REFS_DIR, exist_ok=True)
    with open(os.path.join(child.REFS_DIR, f"{name}.json"), "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    print(f"{name}: {p['pipeline_s']:.2f} s, frames failed {setup['frames_failed']}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(name)
