"""Multi-process repair over shared-memory rings (DESIGN.md §13).

The same acceptance bar as tests/net/test_multiprocess.py, but every
frame crosses a ``multiprocessing.shared_memory`` ring instead of a
socket: agents and the coordinator are separate OS processes launched
through the actual CLI entry points (``fastpr agent --transport shm`` /
``fastpr repair --transport shm``), no peer spec anywhere — the whole
topology derives from the shared ``--workdir``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.net import shm_available, shm_ring_name
from repro.runtime import COORDINATOR_ID, RuntimeConfig

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="needs POSIX shm + flock"
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

NODES = 8
STRIPES = 3
SEED = 11
STF = 2


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(*args):
    return [sys.executable, "-m", "repro.cli", *args]


def test_ring_names_deterministic_per_workdir(tmp_path):
    """Every process must derive the same names from the same workdir."""
    a = shm_ring_name(tmp_path, 0)
    assert a == shm_ring_name(tmp_path, 0)
    assert a != shm_ring_name(tmp_path, 1)
    assert a != shm_ring_name(tmp_path / "other", 0)
    assert shm_ring_name(tmp_path, COORDINATOR_ID).endswith("-c")


@pytest.mark.parametrize(
    "pipelining",
    ["off", "chain"],
    ids=["star", "chained-sliced"],
)
def test_multiprocess_shm_repair(tmp_path, pipelining):
    """RS(5,3) repair, one process per node, zero sockets.

    The ``chained-sliced`` variant routes every reconstruction through
    an ordered helper chain in 4-slice granularity (``pipeline_slices``
    in the coordinator's ``--config``; the agents need no setting) —
    the same frames, the same rings, and the repaired bytes must still
    come out byte-identical.
    """
    extra_repair_args = ()
    if pipelining == "chain":
        config_file = tmp_path / "config.json"
        config_file.write_text(
            json.dumps(RuntimeConfig(pipeline_slices=4).to_dict())
        )
        extra_repair_args = (
            "--pipelining", "chain", "--config", str(config_file),
        )
    snap = tmp_path / "cluster.json"
    work = tmp_path / "work"
    work.mkdir()
    subprocess.run(
        _cli(
            "snapshot", "--nodes", str(NODES), "--stripes", str(STRIPES),
            "--code", "rs(5,3)", "--hot-standby", "0",
            "--chunk-size", str(1 << 16), "--seed", str(SEED),
            "-o", str(snap),
        ),
        env=_env(), check=True, capture_output=True, timeout=60,
    )
    agents = [
        subprocess.Popen(
            _cli(
                "agent", "--snapshot", str(snap), "--node", str(node_id),
                "--transport", "shm", "--workdir", str(work),
                "--seed", str(SEED),
            ),
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        for node_id in range(NODES)
    ]
    try:
        repair = subprocess.run(
            _cli(
                "repair", "--snapshot", str(snap), "--stf", str(STF),
                "--seed", str(SEED), "--transport", "shm",
                "--workdir", str(work),
                "--journal", str(tmp_path / "repair.journal"),
                "--metrics-out", str(tmp_path / "metrics.json"),
                "-o", str(tmp_path / "summary.json"),
                *extra_repair_args,
            ),
            env=_env(), capture_output=True, text=True, timeout=240,
        )
        assert repair.returncode == 0, repair.stdout + repair.stderr
        assert "verified byte-identical" in repair.stdout
        assert "over shared memory" in repair.stdout
        if pipelining == "chain":
            assert "pipelining=chain" in repair.stdout

        # The coordinator's Shutdown broadcast must end every agent.
        deadline = time.monotonic() + 30
        for proc in agents:
            out, _ = proc.communicate(
                timeout=max(0.5, deadline - time.monotonic())
            )
            assert proc.returncode == 0, out.decode()

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["transport"] == "shm"
        assert summary["pipelining"] == pipelining
        assert summary["chunks_repaired"] >= 1
        assert summary["chunks_verified"] == (
            summary["chunks_repaired"] + summary["recovered_chunks"]
        )
        assert summary["nacks"] == 0

        assert (tmp_path / "repair.journal").stat().st_size > 0
        metrics = (tmp_path / "metrics.json").read_text()
        assert "net_frames_sent_total" in metrics
    finally:
        for proc in agents:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
