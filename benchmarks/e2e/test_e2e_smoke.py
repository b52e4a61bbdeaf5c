"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Not collected by tier-1 (``testpaths = tests``).  Runs the harness in
``--quick`` mode with the traced pass and checks the contract a later
PR relies on: every workload and every metric ``BENCHMARK.json`` names
is reported with its unit, nothing failed, the two result documents
compare clean, and the harness reaches the system only through the
public packages' ``__all__``.
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: the only packages the harness may import the system through
PUBLIC_PACKAGES = {
    "repro", "repro.runtime", "repro.net", "repro.gateway",
    "repro.ec", "repro.core", "repro.sim", "repro.obs",
}


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace",
         "--seed", "7", "-o", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), out, done.stdout


def test_every_workload_and_metric_is_reported(quick_run):
    document, _, stdout = quick_run
    assert set(document["workloads"]) == {
        w["name"] for w in SPEC["workloads"]
    }
    for name, entry in document["workloads"].items():
        assert entry["error_rate"] == 0 and entry["failed"] == 0, name
        assert entry["attempted"] > 0
        assert entry["why"]
        for metric in SPEC["end_to_end"]:
            body = entry["end_to_end"][metric["name"]]
            assert body["unit"] == metric["unit"]
            assert body["median"] > 0, (name, metric["name"])
        layers = entry["traced"]["per_layer"]
        assert set(layers) == {m["name"] for m in SPEC["per_layer"]}, name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["name"] in stdout
    for field in ("cpu", "nproc", "python", "numpy", "git_sha", "git_dirty"):
        assert field in document["env"]
    assert document["journal_fsync"] == "always"


def test_regime_checks_hold(quick_run):
    document, _, _ = quick_run
    layers = {
        name: entry["traced"]["per_layer"]
        for name, entry in document["workloads"].items()
    }
    # At full size the NIC-bound drain waits on its limiters for longer
    # than its own wall-clock (summed over nodes); 64 KiB chunks are
    # too small for that, so the smoke run only checks it waits at all.
    assert layers["drain-nic10"]["throttle.wait_s"] > 0
    for name in ("drain-cpu-mem", "drain-cpu-tcp"):
        assert layers[name]["throttle.wait_s"] <= (
            0.05 * layers[name]["drain.p50_s"]
        )
    assert layers["drain-cpu-tcp"]["tcp.frames"] > 0
    assert layers["drain-cpu-mem"]["tcp.frames"] == 0
    for name in ("gateway-mixed-cpu", "gateway-get-under-drain"):
        assert layers[name]["store.degraded_share"] > 0
    for entry in layers.values():
        assert entry["coordinator.retries"] == 0
        assert entry["coordinator.replans"] == 0
        assert entry["coordinator.nacks"] == 0


def test_span_file_and_self_comparison(quick_run):
    _, out, _ = quick_run
    spans = json.loads(Path(str(out) + ".trace.json").read_text())
    for name, trace in spans.items():
        names = {span["name"] for span in trace["spans"]}
        assert {"workload", "probe"} <= names, name
        assert names & {"drain", "op"}, name
    same = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout


def test_harness_imports_only_public_names():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        for source in sorted(HERE.glob("*.py")):
            tree = ast.parse(source.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        assert not alias.name.startswith("repro"), (
                            f"{source.name}: import {alias.name}"
                        )
                if not isinstance(node, ast.ImportFrom) or not node.module:
                    continue
                if node.module.split(".")[0] != "repro":
                    continue
                assert node.module in PUBLIC_PACKAGES, (
                    f"{source.name} imports from {node.module}"
                )
                exported = importlib.import_module(node.module).__all__
                for alias in node.names:
                    assert alias.name in exported, (
                        f"{source.name}: {node.module}.{alias.name} is not "
                        "in that package's __all__"
                    )
    finally:
        sys.path.remove(str(ROOT / "src"))
