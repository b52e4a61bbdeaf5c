"""Every test the CI workflow names by node id still exists.

Some steps of ``.github/workflows/ci.yml`` run single tests or classes
(``tests/...::...``).  A renamed or deleted test would otherwise only
show on the next CI run, as an error or as nothing run at all.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
#: a node id up to the first space or quote (ids may carry ``[...]``)
NODE_ID = re.compile(r"tests/[\w/]+\.py::[^\s\"']+")


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
