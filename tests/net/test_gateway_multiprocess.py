"""The gateway acceptance bar: degraded reads across real processes.

The ISSUE's CI scenario — a live agent cluster (one OS process per
datanode, shared-memory transport), the object gateway as another
process, and one-shot CLI clients: PUT an object, kill a datanode
that holds some of its *data* chunks, GET it back.  The bytes must be
identical and the gateway must report the read as degraded.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.ec.galois import KERNEL
from repro.net import shm_available

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="needs POSIX shm + flock"
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

NODES = 12
SEED = 7
CHUNK = 4096
K = 6  # rs(9,6)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(*args):
    return [sys.executable, "-m", "repro.cli", *args]


def _put_with_retry(args, attempts=20, delay=0.5):
    """PUT until the gateway and agents are all up (or give up)."""
    for attempt in range(attempts):
        result = subprocess.run(
            args, env=_env(), capture_output=True, text=True, timeout=120
        )
        if result.returncode == 0:
            return result
        time.sleep(delay)
    raise AssertionError(
        f"gateway put never succeeded: {result.stdout}\n{result.stderr}"
    )


def test_degraded_get_survives_datanode_kill(tmp_path):
    snap = tmp_path / "cluster.json"
    work = tmp_path / "work"
    work.mkdir()
    subprocess.run(
        _cli(
            "snapshot", "--nodes", str(NODES), "--stripes", "4",
            "--code", "rs(9,6)", "--hot-standby", "0",
            "--chunk-size", str(1 << 16), "--seed", str(SEED),
            "-o", str(snap),
        ),
        env=_env(), check=True, capture_output=True, timeout=60,
    )
    payload = bytes((i * 131) % 256 for i in range(10 * K * CHUNK + 77))
    source = tmp_path / "object.bin"
    source.write_bytes(payload)

    agents = {
        node_id: subprocess.Popen(
            _cli(
                "agent", "--snapshot", str(snap), "--node", str(node_id),
                "--transport", "shm", "--workdir", str(work),
                "--seed", str(SEED), "--no-load",
            ),
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        for node_id in range(NODES)
    }
    gateway = subprocess.Popen(
        _cli(
            "gateway", "serve", "--snapshot", str(snap),
            "--workdir", str(work), "--chunk-size", str(CHUNK),
            "--max-seconds", "180",
        ),
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        _put_with_retry(_cli(
            "gateway", "put", "ci/object", str(source),
            "--workdir", str(work),
        ))

        # The durable manifest names every chunk's node; pick a victim
        # holding data chunks (index < k) so the GET must decode.
        manifests = list((work / "manifests").glob("*.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["key"] == "ci/object"
        data_nodes = {
            node
            for stripe in manifest["stripes"]
            for node in stripe["placement"][:K]
        }
        victim = sorted(data_nodes)[0]
        agents[victim].send_signal(signal.SIGKILL)
        agents[victim].wait(timeout=30)

        fetched = tmp_path / "fetched.bin"
        get = subprocess.run(
            _cli(
                "gateway", "get", "ci/object", str(fetched),
                "--workdir", str(work), "--timeout", "120",
            ),
            env=_env(), capture_output=True, text=True, timeout=180,
        )
        assert get.returncode == 0, f"{get.stdout}\n{get.stderr}"
        assert fetched.read_bytes() == payload  # byte-identical
        assert "degraded" in get.stderr
    finally:
        gateway.terminate()
        for proc in agents.values():
            proc.terminate()
        gateway.wait(timeout=30)
        for proc in agents.values():
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
    # the serve line says which GF kernel decodes degraded reads
    assert f"GF kernel {KERNEL}" in gateway.stdout.read().decode()
