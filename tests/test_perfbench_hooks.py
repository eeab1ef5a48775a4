"""The pipeline benchmark wraps xckit functions by module attribute.

Installing and removing its patches here makes a rename or move of any
wrapped function fail the suite, not only the traced benchmark run.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import child  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_benchmark_patches_install_and_restore():
    import xckit.cli

    original = xckit.cli.categorize
    tracer = Tracer()
    try:
        child._install_patches(tracer)
        assert xckit.cli.categorize is not original
    finally:
        tracer.restore()
    assert xckit.cli.categorize is original
