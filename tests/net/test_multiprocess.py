"""The acceptance bar of DESIGN.md §10: real processes, real sockets.

A full RS(9,6) predictive repair with the coordinator and every agent
as separate OS processes talking the binary wire protocol over TCP —
repaired chunks byte-identical, journal written, metrics and trace
artifacts produced.  This is the same topology as the README's
multi-process walkthrough, driven through the actual CLI entry points
(``fastpr agent`` / ``fastpr repair --transport tcp``).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.ec.galois import KERNEL
from repro.net import allocate_ports, format_peer_spec, sharded_peer_spec
from repro.runtime import COORDINATOR_ID, FaultPlan, LinkFault, RuntimeConfig
from repro.runtime.faults import DomainCrashFault

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

NODES = 12
STRIPES = 4
SEED = 7
STF = 3

#: 4 frames per 64 KiB chunk stream: the tests below whose point is a
#: multi-frame stream pin it, since the default is one whole-chunk packet
MULTI_PACKET = ("--packet-size", str(1 << 14))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _save_journal_artifact(tmp_path, name):
    """Preserve a failing run's journal(s) for CI upload (see ci.yml)."""
    import shutil

    artifact_dir = os.environ.get("FASTPR_JOURNAL_DIR")
    if not artifact_dir:
        return
    journal = tmp_path / "repair.journal"
    if journal.exists():
        os.makedirs(artifact_dir, exist_ok=True)
        shutil.copy(journal, os.path.join(artifact_dir, f"{name}.journal"))
    shards = tmp_path / "shards"
    if shards.is_dir():
        os.makedirs(artifact_dir, exist_ok=True)
        for shard_journal in sorted(shards.glob("shard-*.journal")):
            shutil.copy(
                shard_journal,
                os.path.join(
                    artifact_dir, f"{name}.{shard_journal.name}"
                ),
            )


def _cli(*args):
    return [sys.executable, "-m", "repro.cli", *args]


@pytest.fixture
def peer_map():
    ports = allocate_ports(NODES + 1)
    peers = {COORDINATOR_ID: ("127.0.0.1", ports[0])}
    for i in range(NODES):
        peers[i] = ("127.0.0.1", ports[i + 1])
    return peers


def _launch(tmp_path, peer_map, extra_agent_args=(), extra_repair_args=()):
    """Spawn every agent process and run the TCP repair against them."""
    snap = tmp_path / "cluster.json"
    work = tmp_path / "work"
    work.mkdir()
    subprocess.run(
        _cli(
            "snapshot", "--nodes", str(NODES), "--stripes", str(STRIPES),
            "--code", "rs(9,6)", "--hot-standby", "0",
            "--chunk-size", str(1 << 16), "--seed", str(SEED),
            "-o", str(snap),
        ),
        env=_env(), check=True, capture_output=True, timeout=60,
    )
    spec = format_peer_spec(peer_map)
    agents = [
        subprocess.Popen(
            _cli(
                "agent", "--snapshot", str(snap), "--node", str(node_id),
                "--listen", f"{host}:{port}", "--peers", spec,
                "--workdir", str(work), "--seed", str(SEED),
                *extra_agent_args,
            ),
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        for node_id, (host, port) in peer_map.items()
        if node_id != COORDINATOR_ID
    ]
    repair = subprocess.run(
        _cli(
            "repair", "--snapshot", str(snap), "--stf", str(STF),
            "--seed", str(SEED), "--transport", "tcp", "--peers", spec,
            "--workdir", str(work),
            "--journal", str(tmp_path / "repair.journal"),
            "--metrics-out", str(tmp_path / "metrics.json"),
            "--trace-out", str(tmp_path / "trace.json"),
            "-o", str(tmp_path / "summary.json"),
            *extra_repair_args,
        ),
        env=_env(), capture_output=True, text=True, timeout=240,
    )
    return agents, repair


def test_multiprocess_rs96_repair(tmp_path, peer_map):
    agents, repair = _launch(
        tmp_path, peer_map, extra_repair_args=MULTI_PACKET
    )
    try:
        assert repair.returncode == 0, repair.stdout + repair.stderr
        assert "verified byte-identical" in repair.stdout

        # The coordinator's Shutdown broadcast must end every agent.
        deadline = time.monotonic() + 30
        for proc in agents:
            remaining = max(0.5, deadline - time.monotonic())
            out, _ = proc.communicate(timeout=remaining)
            assert proc.returncode == 0, out.decode()
            # the start-up line says which GF kernel the process runs
            assert f"(GF kernel {KERNEL})" in out.decode()

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["transport"] == "tcp"
        assert summary["chunks_repaired"] >= 1
        assert summary["chunks_verified"] == (
            summary["chunks_repaired"] + summary["recovered_chunks"]
        )
        assert summary["nacks"] == 0

        # Artifacts reconcile: journal exists, trace has spans, metrics
        # saw socket traffic.
        assert (tmp_path / "repair.journal").stat().st_size > 0
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["spans"]
        metrics = json.dumps(
            json.loads((tmp_path / "metrics.json").read_text())
        )
        assert "net_frames_sent_total" in metrics
    except BaseException:
        _save_journal_artifact(tmp_path, "multiprocess_rs96")
        raise
    finally:
        for proc in agents:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


def test_multiprocess_repair_under_packet_corruption(tmp_path, peer_map):
    """CI's net-integration scenario: corrupt frames, retried to clean.

    Every process (agents and coordinator) runs the same fault plan;
    corruption is injected on the sending side, caught by the per-packet
    checksum at the receiver, and healed by coordinator retries — the
    chunks still come out byte-identical.
    """
    plan_file = tmp_path / "faults.json"
    plan_file.write_text(json.dumps(
        # Seed 7's per-link streams flip one of the reconstruction's 24
        # first-attempt packets and none of its retry's.
        FaultPlan(links=[LinkFault(corrupt=0.05)], seed=7).to_dict()
    ))
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(RuntimeConfig(
        ack_timeout=3.0,
        min_deadline=1.0,
        backoff_base=0.05,
        backoff_cap=0.2,
        probe_timeout=0.5,
        heartbeat_interval=0.2,
        poll_interval=0.05,
        journal_fsync="never",
        inventory_timeout=2.0,
    ).to_dict()))
    shared = (
        "--fault-plan", str(plan_file), "--config", str(config_file),
    )
    agents, repair = _launch(
        tmp_path, peer_map,
        extra_agent_args=shared,
        extra_repair_args=shared + MULTI_PACKET,
    )
    try:
        assert repair.returncode == 0, repair.stdout + repair.stderr
        assert "verified byte-identical" in repair.stdout
        summary = json.loads((tmp_path / "summary.json").read_text())
        # A corruption fired and was healed (the injectors' counters
        # live in the agent processes; the coordinator sees the retry).
        assert summary["retries"] >= 1
        assert summary["chunks_verified"] == (
            summary["chunks_repaired"] + summary["recovered_chunks"]
        )
        deadline = time.monotonic() + 30
        for proc in agents:
            out, _ = proc.communicate(
                timeout=max(0.5, deadline - time.monotonic())
            )
            assert proc.returncode == 0, out.decode()
    except BaseException:
        _save_journal_artifact(tmp_path, "multiprocess_corruption")
        raise
    finally:
        for proc in agents:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


def test_multiprocess_chained_sliced_repair(tmp_path, peer_map):
    """CI's pipelining scenario: sliced chained repair over real sockets.

    Same topology as the star run, but every reconstruction streams
    coefficient-scaled slices through an ordered helper chain
    (``--pipelining chain`` with ``pipeline_slices: 4`` in the
    coordinator's ``--config``; a slice is a packet the coordinator
    sizes, so the agents need no setting).  The repaired bytes must
    still verify byte-identical.
    """
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps(RuntimeConfig(pipeline_slices=4).to_dict())
    )
    agents, repair = _launch(
        tmp_path, peer_map,
        extra_repair_args=(
            "--pipelining", "chain", "--config", str(config_file),
        ),
    )
    try:
        assert repair.returncode == 0, repair.stdout + repair.stderr
        assert "verified byte-identical" in repair.stdout
        assert "pipelining=chain" in repair.stdout

        deadline = time.monotonic() + 30
        for proc in agents:
            out, _ = proc.communicate(
                timeout=max(0.5, deadline - time.monotonic())
            )
            assert proc.returncode == 0, out.decode()

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["pipelining"] == "chain"
        assert summary["chunks_repaired"] >= 1
        assert summary["chunks_verified"] == (
            summary["chunks_repaired"] + summary["recovered_chunks"]
        )
        assert summary["nacks"] == 0
    except BaseException:
        _save_journal_artifact(tmp_path, "multiprocess_chained")
        raise
    finally:
        for proc in agents:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


# ----------------------------------------------------------------------
# sharded multi-coordinator runs (DESIGN.md §11)
# ----------------------------------------------------------------------

SHARD_STORAGE = 10
SHARD_STANDBY = 2
SHARD_NODES = SHARD_STORAGE + SHARD_STANDBY
SHARD_STRIPES = 6
SHARD_RACKS = 5
SHARD_STF = 0
#: rack 1 of 12 nodes dealt round-robin over 5 racks
RACK_ONE = {1, 6, 11}


def _rack_snapshot(path):
    """A rack-safe snapshot: RS(5,3), one chunk per rack per stripe.

    ``fastpr snapshot`` places randomly, which a rack-level kill can
    push past ``n - k`` losses; the acceptance scenario needs the
    rack-aware placement the paper's deployment section assumes, so
    build it programmatically and save through the same snapshot
    format the CLI loads.
    """
    from repro.cluster import StorageCluster
    from repro.cluster import snapshot as snapshot_mod
    from repro.cluster.topology import RackAwarePlacement, RackTopology

    cluster = StorageCluster(
        num_nodes=SHARD_STORAGE,
        num_hot_standby=SHARD_STANDBY,
        chunk_size=1 << 16,
    )
    topology = RackTopology.uniform(sorted(cluster.nodes), SHARD_RACKS)
    placer = RackAwarePlacement(topology, max_per_rack=1, seed=SEED)
    for _ in range(SHARD_STRIPES):
        cluster.add_stripe(5, 3, placer.choose(cluster, 5))
    snapshot_mod.save(cluster, str(path))


def _launch_sharded(tmp_path, rack_fault=False):
    """Spawn 12 agents and run a 2-coordinator TCP repair against them.

    With ``rack_fault`` the driver runs a :class:`DomainCrashFault`
    killing rack 1 — three agents black-holed at the driver's network
    plus the co-located shard-1 coordinator — at ``t=0`` so the
    takeover is deterministic.
    """
    ports = allocate_ports(SHARD_NODES + 1)
    peers = {COORDINATOR_ID: ("127.0.0.1", ports[0])}
    for i in range(SHARD_NODES):
        peers[i] = ("127.0.0.1", ports[i + 1])
    spec = format_peer_spec(sharded_peer_spec(peers, 2))
    snap = tmp_path / "cluster.json"
    _rack_snapshot(snap)
    work = tmp_path / "work"
    work.mkdir()
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(RuntimeConfig(
        ack_timeout=3.0,
        min_deadline=1.0,
        backoff_base=0.05,
        backoff_cap=0.2,
        probe_timeout=0.5,
        heartbeat_interval=0.2,
        poll_interval=0.05,
        journal_fsync="never",
        inventory_timeout=2.0,
        lease_timeout=5.0,
    ).to_dict()))
    repair_args = [
        "--coordinators", "2",
        "--journal", str(tmp_path / "shards"),
        "--config", str(config_file),
    ]
    if rack_fault:
        plan_file = tmp_path / "faults.json"
        plan_file.write_text(json.dumps(FaultPlan(
            domain_crashes=[DomainCrashFault(
                kind="rack", index=1, at_time=0.0, coordinators=(1,)
            )],
        ).to_dict()))
        repair_args += [
            "--fault-plan", str(plan_file),
            "--racks", str(SHARD_RACKS),
        ]
    agents = [
        subprocess.Popen(
            _cli(
                "agent", "--snapshot", str(snap), "--node", str(node_id),
                "--listen", f"{host}:{port}", "--peers", spec,
                "--workdir", str(work), "--seed", str(SEED),
                "--config", str(config_file),
            ),
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        for node_id, (host, port) in peers.items()
        if node_id != COORDINATOR_ID
    ]
    repair = subprocess.run(
        _cli(
            "repair", "--snapshot", str(snap), "--stf", str(SHARD_STF),
            "--seed", str(SEED), "--transport", "tcp", "--peers", spec,
            "--workdir", str(work),
            "--metrics-out", str(tmp_path / "metrics.json"),
            "-o", str(tmp_path / "summary.json"),
            *repair_args,
        ),
        env=_env(), capture_output=True, text=True, timeout=240,
    )
    return agents, repair


def test_multiprocess_sharded_repair(tmp_path):
    """Two shard coordinators in one driver process, fault-free."""
    agents, repair = _launch_sharded(tmp_path)
    try:
        assert repair.returncode == 0, repair.stdout + repair.stderr
        assert "verified byte-identical" in repair.stdout
        assert "(2 coordinators, 0 takeovers)" in repair.stdout

        deadline = time.monotonic() + 30
        for proc in agents:
            out, _ = proc.communicate(
                timeout=max(0.5, deadline - time.monotonic())
            )
            assert proc.returncode == 0, out.decode()

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["coordinators"] == 2
        assert summary["restarts"] == 0
        assert summary["chunks_verified"] == (
            summary["chunks_repaired"] + summary["recovered_chunks"]
        )
        for shard in (0, 1):
            journal = tmp_path / "shards" / f"shard-{shard}.journal"
            assert journal.stat().st_size > 0
    except BaseException:
        _save_journal_artifact(tmp_path, "multiprocess_sharded")
        raise
    finally:
        for proc in agents:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


def test_multiprocess_rack_fault_takeover(tmp_path):
    """The acceptance scenario over real sockets: a rack-level fault
    kills one shard coordinator and three agents; the survivor takes
    over the orphaned shard and every chunk still verifies
    byte-identical through the shared filesystem.

    The dead rack's agent processes stay alive but black-holed (crash
    timing over TCP is inherently racy; the in-memory variant in
    tests/runtime/test_multicoord.py pins the tight mid-repair
    semantics), so they never see the final Shutdown broadcast and are
    reaped here instead of joined.
    """
    from repro.runtime.journal import RepairJournal, ShardTakeover

    agents, repair = _launch_sharded(tmp_path, rack_fault=True)
    try:
        assert repair.returncode == 0, repair.stdout + repair.stderr
        assert "verified byte-identical" in repair.stdout
        assert "taken over by shard" in repair.stdout

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["coordinators"] == 2
        assert summary["restarts"] >= 1
        assert summary["chunks_verified"] == (
            summary["chunks_repaired"] + summary["recovered_chunks"]
        )

        # The orphaned shard's journal shows the handoff...
        records = RepairJournal.replay(
            tmp_path / "shards" / "shard-1.journal", truncate=False
        )
        assert any(isinstance(r, ShardTakeover) for r in records)
        # ...and so do the metrics.
        metrics = (tmp_path / "metrics.json").read_text()
        assert "coord_takeovers_total" in metrics

        # Survivors outside the dead rack shut down cleanly.
        deadline = time.monotonic() + 30
        for node_id, proc in enumerate(agents):
            if node_id in RACK_ONE:
                continue
            out, _ = proc.communicate(
                timeout=max(0.5, deadline - time.monotonic())
            )
            assert proc.returncode == 0, (node_id, out.decode())
    except BaseException:
        _save_journal_artifact(tmp_path, "multiprocess_rack_fault")
        raise
    finally:
        for proc in agents:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
