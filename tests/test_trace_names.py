"""The benchmark's tracer (perfbench/spans.py) replaces solver functions by
module and name.  A name that no longer exists is skipped, and the spans
and counters behind it then read zero without an error."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
# removed from the program and still listed until the benchmark's next change
KNOWN_STALE = {("nlpflow.problemfile", "check_derivatives")}


def wrapped():
    """The (module, attribute) pairs of spans.py's WRAPPED, read without
    importing it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{SPANS} has no WRAPPED list")


def test_every_traced_name_exists():
    names = wrapped()
    assert ("nlpflow.dynamics", "pinv_gram") in names
    missing = {(module, attr) for module, attr in names
               if not hasattr(importlib.import_module(module), attr)}
    assert missing <= KNOWN_STALE, sorted(missing - KNOWN_STALE)
