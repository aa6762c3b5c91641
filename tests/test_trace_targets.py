"""The benchmark's per-layer tracer wraps names in rasqp modules; a refactor
that renames or removes one breaks the traced benchmark. Its own tests are
not collected here, so this checks the names from its table directly."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def trace_targets():
    """The `TARGETS` dict literal of perfbench/layers.py, read without
    importing or executing the file."""
    tree = ast.parse(LAYERS.read_text(), filename=str(LAYERS))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TARGETS"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {LAYERS}")


def test_every_trace_target_exists():
    targets = trace_targets()
    assert targets
    missing = [f"rasqp.{mod}.{attr}" for mod, attr in targets
               if not hasattr(importlib.import_module(f"rasqp.{mod}"), attr)]
    assert missing == []
