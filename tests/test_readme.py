"""README's library quick start runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_measures_the_closed_form_zero_point_shift():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    measured, closed_form = (float(word) for word in out.getvalue().split())
    assert abs(measured - closed_form) < 1e-8
