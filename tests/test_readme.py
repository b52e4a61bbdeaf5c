"""README's python examples name only what the package has.

The examples are not run (they lean on names defined in prose around
them), but every ``from repro... import ...`` in them must resolve and
every ``testbed.<name>(`` call must be a method of
:class:`~repro.runtime.testbed.EmulatedTestbed`, so a renamed or
deleted API shows here instead of in a reader's traceback.
"""

import ast
import importlib
import re
from pathlib import Path

from repro.runtime.testbed import EmulatedTestbed

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
TESTBED_CALL = re.compile(r"\btestbed\.(\w+)\(")


def python_blocks():
    return PYTHON_BLOCK.findall(README.read_text())


def test_every_repro_import_resolves():
    imported = [
        (node.module, alias.name)
        for block in python_blocks()
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom)
        and node.module.split(".")[0] == "repro"
        for alias in node.names
    ]
    assert len(imported) >= 10, imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing


def test_every_testbed_call_is_a_method():
    called = {
        name for block in python_blocks() for name in TESTBED_CALL.findall(block)
    }
    assert {"execute", "verify_plan"} <= called, called
    missing = sorted(
        name for name in called if not callable(getattr(EmulatedTestbed, name, None))
    )
    assert not missing, missing
