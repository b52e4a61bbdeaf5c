"""README's examples name only what the package has.

The examples are not run (they lean on names defined in prose around
them), but every ``from repro... import ...`` in them must resolve,
every ``testbed.<name>(`` call must be a method of
:class:`~repro.runtime.testbed.EmulatedTestbed`, and every ``fastpr``
command in a bash block must parse, so a renamed or deleted API or flag
shows here instead of in a reader's traceback.
"""

import ast
import importlib
import re
import shlex
from pathlib import Path

from repro.cli import _FIGURE_WORDS, build_parser
from repro.runtime.testbed import EmulatedTestbed

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
BASH_BLOCK = re.compile(r"^```bash\n(.*?)^```", re.MULTILINE | re.DOTALL)
TESTBED_CALL = re.compile(r"\btestbed\.(\w+)\(")
#: ``$VAR``, ``${VAR}`` and ``$((...))``: a shell value the parser sees as 1
SHELL_VALUE = re.compile(r"\$\(\([^)]*\)\)|\$\{?\w+\}?")


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


def fastpr_commands():
    """Each ``fastpr ...`` line of README's bash blocks as argv."""
    commands = []
    for block in BASH_BLOCK.findall(README.read_text()):
        for line in block.replace("\\\n", " ").splitlines():
            if line.split()[:1] != ["fastpr"]:
                continue
            words = shlex.split(SHELL_VALUE.sub("1", line), comments=True)
            commands.append(words[1:-1] if words[-1] == "&" else words[1:])
    return commands


def test_every_fastpr_command_parses():
    commands = fastpr_commands()
    assert len(commands) >= 25, commands
    parser = build_parser()
    rejected = []
    for argv in commands:
        if argv[0] in _FIGURE_WORDS:  # `fastpr fig8` == `fastpr figures fig8`
            argv = ["figures"] + argv
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(" ".join(argv))
    assert not rejected, rejected
