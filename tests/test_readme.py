"""README's library quick start runs and prints what it says it prints; its configs load."""

import contextlib
import io
import json
import re
from pathlib import Path

from vibronic.cli import load_config

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


def test_config_examples_load(tmp_path):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"config{i}.json"
        path.write_text(block, encoding="utf-8")
        load_config(str(path), json.loads(block)["task"])
