"""Every test, module and make target CI names still exists.

Some steps of ``.github/workflows/ci.yml`` run single tests or classes
(``tests/...::...``), modules (``python -m ...``) or Makefile targets
(``make ...``), and the Makefile runs modules too.  A renamed or
deleted one would otherwise only show on the next CI run, as an error
or as nothing run at all.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
MAKEFILE = ROOT / "Makefile"
#: a node id up to the first space or quote (ids may carry ``[...]``)
NODE_ID = re.compile(r"tests/[\w/]+\.py::[^\s\"']+")
#: ``python -m mod``, ``python3 -m mod`` or the Makefile's ``$(PY) -m mod``
MODULE = re.compile(r"(?:\bpython3?|\$\(PY\))\s+-m\s+([\w.]+)")
MAKE_TARGET = re.compile(r"\bmake\s+([\w-]+)")


def ci_node_ids():
    return sorted(set(NODE_ID.findall(WORKFLOW.read_text())))


def test_workflow_names_node_ids():
    # Guards the pattern: the workflow names a dozen-odd node ids.
    ids = ci_node_ids()
    assert len(ids) >= 10, ids
    shm = "tests/net/test_shm.py::test_multiprocess_shm_repair"
    assert f"{shm}[chained-sliced]" in ids


def test_every_workflow_node_id_collects():
    ids = ci_node_ids()
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-o", "addopts=", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    collected = result.stdout.splitlines()
    missing = [
        node for node in ids
        if not any(line.startswith(node) for line in collected)
    ]
    assert not missing, missing


def test_every_module_ci_and_the_makefile_run_resolves(monkeypatch):
    text = WORKFLOW.read_text() + MAKEFILE.read_text()
    modules = sorted(set(MODULE.findall(text)))
    assert "repro.bench.gateway" in modules, modules
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    missing = [
        name for name in modules if importlib.util.find_spec(name) is None
    ]
    assert not missing, missing


def test_every_make_target_ci_names_exists():
    targets = set(MAKE_TARGET.findall(WORKFLOW.read_text()))
    assert "packet-sweep" in targets, targets
    defined = set(
        re.findall(r"^([\w-]+):", MAKEFILE.read_text(), re.MULTILINE)
    )
    assert not targets - defined, sorted(targets - defined)
