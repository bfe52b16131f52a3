"""The traced benchmark run wraps program functions by name; a name deleted
from ``src/`` would break ``bench/run.py --trace 1`` without this check."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_wrapped_names_resolve():
    # read the table with ast: bench is a script directory, not a package
    tree = ast.parse(SPANS.read_text())
    wrapped = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    )
    assert "verify" in wrapped and "engine" in wrapped
    missing = [
        f"{mod}.{name}"
        for mod, names in wrapped.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"reconfig.{mod}"), name, None))
    ]
    assert not missing
