"""The benchmark's workloads.

Both use xckit's default scene (40x40 grid; 2 cars, 1 pedestrian and 1
cyclist per frame) seeded from the command line. Each fixes the number of
frames, the attribution method and the eval grouping. Sizes keep one
pipeline pass to seconds on a 2-vCPU machine and every store at 80 or more
predictions, so the 5-fold meta-classifier always sees five rows of each
class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

DEFAULT_SEED = 0  # the seed whose outputs are compared against perfbench/refs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    frames: int                 # frames attempted; placement failures drop out
    method: str                 # xckit attribute --method
    steps: int                  # IG path steps; 1 for backprop saliency
    group_by: str               # xckit eval --group-by


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="readme-ig32",
            why="README pipeline config (40x40, IG-32, ungrouped eval): attribution is "
                "almost all of the pipeline",
            frames=20, method="ig", steps=32, group_by="",
        ),
        Workload(
            name="bench-backprop",
            why="criterion-07 shape with backprop saliency and class,points100 eval: "
                "meta CV, XC scoring and matching dominate",
            frames=100, method="backprop", steps=1, group_by="class,points100",
        ),
    )
}
