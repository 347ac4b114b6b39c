import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_functions_exist():
    # the benchmark's tracer wraps these names; one that no longer resolves
    # breaks every traced run (perfbench/run.py --trace 1)
    spans = runpy.run_path(str(SPANS))  # compiles from source, writes no bytecode
    targets = spans["SPANNED"] + spans["AGGREGATED"]
    assert targets
    for module_name, func_name in targets:
        module = importlib.import_module(f"vibronic.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
