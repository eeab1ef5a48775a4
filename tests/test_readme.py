"""README's code examples run as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_library_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as f:
        text = f.read()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md: Library quick start", "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    # one xc_s_plus per prediction of the seed-3 frame, then the feature's report
    assert len(lines) >= 2 and lines[-1].startswith("MetricReport(")
