"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main, run_experiment


class TestFigures:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "fig15" in out

    def test_unknown_experiment(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fig2_runs_via_shorthand(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig 2(a)" in out
        assert "predictive" in out

    def test_fig3_with_runs_flag_ignored_gracefully(self, capsys):
        # fig3 takes no runs parameter; the flag must not crash it.
        assert main(["fig3", "--runs", "2"]) == 0
        assert "Fig 3(b)" in capsys.readouterr().out

    def test_run_experiment_reports_timing(self):
        assert "completed in" in run_experiment("fig2", runs=None)

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestSnapshotAndPlan:
    def test_snapshot_then_plan(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        assert (
            main(
                [
                    "snapshot",
                    "--nodes",
                    "16",
                    "--stripes",
                    "40",
                    "--code",
                    "rs(5,3)",
                    "--seed",
                    "1",
                    "-o",
                    str(path),
                ]
            )
            == 0
        )
        assert path.exists()
        document = json.loads(path.read_text())
        assert len(document["stripes"]) == 40
        capsys.readouterr()

        assert (
            main(["plan", "--snapshot", str(path), "--stf", "0"]) == 0
        )
        out = capsys.readouterr().out
        assert "fastpr" in out
        assert "migration" in out
        assert "s/chunk" in out

    def test_plan_hot_standby(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        main(
            [
                "snapshot",
                "--nodes",
                "16",
                "--stripes",
                "30",
                "--code",
                "rs(5,3)",
                "--seed",
                "2",
                "-o",
                str(path),
            ]
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "plan",
                    "--snapshot",
                    str(path),
                    "--stf",
                    "1",
                    "--scenario",
                    "hot_standby",
                ]
            )
            == 0
        )

    def test_plan_rejects_failed_node(self, tmp_path, capsys):
        from repro.cluster import StorageCluster
        from repro.cluster import snapshot as snapshot_mod

        cluster = StorageCluster.random(10, 10, 5, 3, seed=3)
        # Node 9 stores chunks; fail a chunk-free standby-less node by
        # draining it first.
        for chunk in cluster.chunks_on_node(9):
            dest = cluster.eligible_destinations(chunk.stripe_id, exclude={9})[0]
            cluster.relocate_chunk(chunk.stripe_id, chunk.chunk_index, dest)
        cluster.decommission(9)
        path = tmp_path / "c.json"
        snapshot_mod.save(cluster, path)
        assert main(["plan", "--snapshot", str(path), "--stf", "9"]) == 2
        assert "already failed" in capsys.readouterr().err


class TestRepairAndScrub:
    def snapshot(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        assert (
            main(
                [
                    "snapshot",
                    "--nodes",
                    "12",
                    "--stripes",
                    "8",
                    "--code",
                    "rs(5,3)",
                    "--hot-standby",
                    "2",
                    "--seed",
                    "7",
                    "--chunk-size",
                    "65536",
                    "-o",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return path

    def test_repair_executes_plan_on_testbed(self, tmp_path, capsys):
        path = self.snapshot(tmp_path, capsys)
        assert main(["repair", "--snapshot", str(path), "--stf", "0"]) == 0
        out = capsys.readouterr().out
        assert "coordinator_restarts=0" in out
        assert "0 corrupt" in out
        assert "verified byte-identical" in out

    def test_repair_summary_keys(self, tmp_path, capsys):
        # The -o document is read by scripts; its shape is pinned.
        path = self.snapshot(tmp_path, capsys)
        out = tmp_path / "summary.json"
        argv = ["repair", "--snapshot", str(path), "--stf", "0", "-o", str(out)]
        assert main(argv) == 0
        document = json.loads(out.read_text())
        assert set(document) == {
            "version", "transport", "coordinators", "pipelining",
            "total_time_s", "round_times_s", "chunks_repaired",
            "chunks_verified", "bytes_transferred", "retries", "replans",
            "nacks", "restarts", "dead_nodes", "recovered_chunks",
            "converted_migrations", "resplit_chunks", "scrub",
        }
        assert set(document["scrub"]) == {"chunks_checked", "corrupt"}
        assert document["chunks_verified"] == document["chunks_repaired"] > 0

    def test_repair_survives_coordinator_crash(self, tmp_path, capsys):
        path = self.snapshot(tmp_path, capsys)
        faults = tmp_path / "faults.json"
        faults.write_text(
            json.dumps({"coordinator_crashes": [{"after_round": 0}]})
        )
        journal = tmp_path / "repair.journal"
        assert (
            main(
                [
                    "repair",
                    "--snapshot",
                    str(path),
                    "--stf",
                    "0",
                    "--fault-plan",
                    str(faults),
                    "--journal",
                    str(journal),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "recovering from journal" in out
        assert "coordinator_restarts=1" in out
        assert "verified byte-identical" in out
        assert journal.exists()

    def test_repair_rejects_failed_node(self, tmp_path, capsys):
        from repro.cluster import StorageCluster
        from repro.cluster import snapshot as snapshot_mod

        cluster = StorageCluster.random(10, 10, 5, 3, seed=3)
        for chunk in cluster.chunks_on_node(9):
            dest = cluster.eligible_destinations(chunk.stripe_id, exclude={9})[0]
            cluster.relocate_chunk(chunk.stripe_id, chunk.chunk_index, dest)
        cluster.decommission(9)
        path = tmp_path / "c.json"
        snapshot_mod.save(cluster, path)
        assert main(["repair", "--snapshot", str(path), "--stf", "9"]) == 2
        assert "already failed" in capsys.readouterr().err

    def test_repair_verification_failure_exits_nonzero(
        self, tmp_path, capsys, monkeypatch
    ):
        # Satellite: a post-repair mismatch must surface as exit 1 with
        # every mismatching chunk id on stderr, never a silent success.
        from repro.runtime.testbed import (
            ChunkMismatch,
            EmulatedTestbed,
            mismatch_error,
        )

        path = self.snapshot(tmp_path, capsys)
        mismatches = [
            ChunkMismatch(3, 1, 9, "bytes differ"),
            ChunkMismatch(5, 0, 4, "missing"),
        ]

        def fail_verify(self, plan, result=None):
            raise mismatch_error(mismatches)

        monkeypatch.setattr(EmulatedTestbed, "verify_plan", fail_verify)
        assert main(["repair", "--snapshot", str(path), "--stf", "0"]) == 1
        captured = capsys.readouterr()
        assert "verified byte-identical" not in captured.out
        assert "post-repair verification failed" in captured.err
        assert "mismatching chunk: stripe 3 index 1 at node 9" in captured.err
        assert "mismatching chunk: stripe 5 index 0 at node 4" in captured.err

    def test_scrub_repairs_injected_corruption(self, tmp_path, capsys):
        path = self.snapshot(tmp_path, capsys)
        assert (
            main(["scrub", "--snapshot", str(path), "--corrupt", "3"]) == 0
        )
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert "repaired in place" in out
        assert "store is clean" in out

    def test_scrub_clean_store_reports_clean(self, tmp_path, capsys):
        path = self.snapshot(tmp_path, capsys)
        assert main(["scrub", "--snapshot", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 corrupt" in out
        assert "store is clean" in out


class TestFleetAndPredict:
    def test_fleet_then_predict(self, tmp_path, capsys):
        path = tmp_path / "fleet.csv"
        assert (
            main(
                [
                    "fleet",
                    "--disks",
                    "120",
                    "--days",
                    "90",
                    "--afr",
                    "0.4",
                    "--seed",
                    "4",
                    "-o",
                    str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "120 disks" in out
        assert (
            main(["predict", "--fleet", str(path), "--seed", "0"]) == 0
        )
        out = capsys.readouterr().out
        assert "precision=" in out
        assert "recall=" in out

    def test_predict_cart_and_threshold_models(self, tmp_path, capsys):
        path = tmp_path / "fleet.csv"
        main(
            [
                "fleet",
                "--disks",
                "120",
                "--days",
                "90",
                "--afr",
                "0.4",
                "--seed",
                "5",
                "-o",
                str(path),
            ]
        )
        capsys.readouterr()
        for model in ("cart", "threshold"):
            assert (
                main(["predict", "--fleet", str(path), "--model", model]) == 0
            )
            assert f"model: {model}" in capsys.readouterr().out

    def test_predict_rejects_tiny_fleet(self, tmp_path, capsys):
        from repro.failure import SmartTraceGenerator, save_traces

        path = tmp_path / "tiny.csv"
        save_traces(SmartTraceGenerator(1, seed=1).generate(), path)
        assert main(["predict", "--fleet", str(path)]) == 2


class TestDaemonAndLifetime:
    def setup_inputs(self, tmp_path, capsys):
        snapshot = tmp_path / "cluster.json"
        main(
            [
                "snapshot", "--nodes", "12", "--stripes", "8",
                "--code", "rs(5,3)", "--seed", "7",
                "--chunk-size", "65536", "-o", str(snapshot),
            ]
        )
        fleet = tmp_path / "fleet.csv"
        main(
            [
                "fleet", "--disks", "12", "--days", "60",
                "--afr", "0.9", "--seed", "21", "-o", str(fleet),
            ]
        )
        capsys.readouterr()
        return snapshot, fleet

    def test_daemon_runs_to_horizon(self, tmp_path, capsys):
        snapshot, fleet = self.setup_inputs(tmp_path, capsys)
        out_path = tmp_path / "daemon.json"
        assert (
            main(
                [
                    "daemon", "--snapshot", str(snapshot),
                    "--fleet", str(fleet), "--seed", "3",
                    "--workdir", str(tmp_path / "bed"),
                    "--scrub-interval", "20", "-o", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "daemon observed 60 days" in out
        assert "0 queued" in out
        document = json.loads(out_path.read_text())
        assert document["days_observed"] == 60
        assert document["repairs_completed"] > 0
        assert document["queue_depth"] == 0
        assert document["restarts"] == 0
        assert (tmp_path / "bed" / "daemon.journal").exists()

    def test_daemon_survives_injected_daemon_crash(self, tmp_path, capsys):
        snapshot, fleet = self.setup_inputs(tmp_path, capsys)
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"daemon_crashes": [{"after_tasks": 1}]}))
        out_path = tmp_path / "daemon.json"
        assert (
            main(
                [
                    "daemon", "--snapshot", str(snapshot),
                    "--fleet", str(fleet), "--seed", "3",
                    "--workdir", str(tmp_path / "bed"),
                    "--fault-plan", str(faults), "-o", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "restarting from journal" in out
        document = json.loads(out_path.read_text())
        assert document["restarts"] == 1
        assert document["queue_depth"] == 0

    def test_daemon_metrics_out(self, tmp_path, capsys):
        snapshot, fleet = self.setup_inputs(tmp_path, capsys)
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "daemon", "--snapshot", str(snapshot),
                    "--fleet", str(fleet), "--seed", "3",
                    "--workdir", str(tmp_path / "bed"),
                    "--max-days", "30", "--metrics-out", str(metrics),
                ]
            )
            == 0
        )
        capsys.readouterr()
        names = {m["name"] for m in json.loads(metrics.read_text())["metrics"]}
        assert "daemon_queue_depth" in names
        assert "daemon_tasks_total" in names

    def test_lifetime_study(self, tmp_path, capsys):
        out_path = tmp_path / "life.json"
        assert (
            main(
                [
                    "lifetime", "--trials", "4", "--years", "0.5",
                    "--disks", "12", "--stripes", "20",
                    "--code", "rs(5,3)", "--process", "both",
                    "--afr", "0.3", "--seed", "2", "-o", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "weibull" in out and "trace-replay" in out
        assert "P(loss)=" in out
        document = json.loads(out_path.read_text())
        assert document["trials"] == 4
        assert [p["process"] for p in document["processes"]] == [
            "weibull", "trace-replay",
        ]
        for process in document["processes"]:
            assert process["predictive"]["trials"] == 4
            assert process["reactive"]["trials"] == 4


class TestParser:
    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures", "fig8"])
        assert args.experiment == "fig8"
        assert args.runs is None

    def test_plan_requires_snapshot(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--stf", "1"])

    def test_surface_is_pinned(self):
        # Every subcommand's flags as the parser builds them; a renamed,
        # retyped or re-defaulted flag (or changed help text) shows here.
        pinned = json.loads(SURFACE.read_text())
        surface = _surface(build_parser())
        assert list(surface) == list(pinned)
        for command, spec in pinned.items():
            assert surface[command] == spec, command


SURFACE = Path(__file__).with_name("cli_surface.json")


def _surface(parser, prefix=""):
    """``{"gateway serve": {"help": ..., "flags": [...]}, ...}``."""
    surface = {}
    for action in parser._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        helps = {c.dest: c.help for c in action._choices_actions}
        for name, sub in action.choices.items():
            path = f"{prefix}{name}"
            surface[path] = {"help": helps.get(name), "flags": [
                {
                    "option_strings": flag.option_strings,
                    "dest": flag.dest,
                    "action": type(flag).__name__,
                    "type": getattr(flag.type, "__name__", flag.type),
                    "default": flag.default,
                    "choices": (
                        None if flag.choices is None else list(flag.choices)
                    ),
                    "required": flag.required,
                    "nargs": flag.nargs,
                    "help": flag.help,
                }
                for flag in sub._actions
                if not isinstance(
                    flag, (argparse._HelpAction, argparse._SubParsersAction)
                )
            ]}
            surface.update(_surface(sub, f"{path} "))
    return surface


def _small_snapshot(tmp_path):
    path = tmp_path / "cluster.json"
    assert main([
        "snapshot", "--nodes", "12", "--stripes", "4", "--code", "rs(5,3)",
        "--seed", "7", "--chunk-size", "4096", "-o", str(path),
    ]) == 0
    return path


def _one_line_exit_2(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err, captured.err
    return captured


class TestBadInput:
    """Bad input exits 2 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # A snapshot stores no code: every reader rebuilds rs(n,k),
            # so anything else would be repaired as the wrong code.
            (["snapshot", "--code", "lrc(6,2,2)", "-o", "{tmp}/x.json"],
             "rs(n,k)"),
            (["snapshot", "--code", "rs(9)", "-o", "{tmp}/x.json"],
             "bad --code"),
            (["snapshot", "--code", "msr(9,6)", "-o", "{tmp}/x.json"],
             "bad --code"),
            (["agent", "--snapshot", "{snap}", "--node", "1",
              "--listen", "127.0.0.1:abc",
              "--peers", "coordinator=127.0.0.1:9", "--workdir", "{tmp}/w"],
             "--listen must be host:port"),
            (["repair", "--snapshot", "{snap}", "--stf", "0",
              "--config", "{tmp}/missing.json"], "bad --config"),
            (["repair", "--snapshot", "{snap}", "--stf", "0",
              "--config", "{tmp}/typo.json"], "ack_timeoutt"),
            (["repair", "--snapshot", "{tmp}/missing.json", "--stf", "0"],
             "bad --snapshot"),
            (["plan", "--snapshot", "{snap}", "--stf", "99"], "unknown node"),
            (["repair", "--snapshot", "{snap}", "--stf", "99"],
             "unknown node"),
            (["lifetime", "--trials", "0"], "--trials must be >= 1"),
            (["lifetime", "--disks", "3"], "need at least n disks"),
            (["lifetime", "--concurrency", "0"], "repair_concurrency"),
            (["lifetime", "--years", "0"], "years"),
            (["lifetime", "--afr", "1.5"], "bad --afr"),
            (["lifetime", "--process", "trace-replay",
              "--fleet", "{tmp}/missing.csv"], "bad --fleet"),
            (["predict", "--fleet", "{tmp}/missing.csv"], "bad --fleet"),
            (["predict", "--fleet", "{tmp}/missing.csv",
              "--train-fraction", "1.5"], "--train-fraction"),
            (["daemon", "--snapshot", "{snap}",
              "--fleet", "{tmp}/missing.csv"], "bad --fleet"),
            (["fleet", "--disks", "0", "-o", "{tmp}/x.json"], "num_disks"),
            (["fleet", "--afr", "2", "-o", "{tmp}/x.json"],
             "annual_failure_rate"),
            (["snapshot", "--nodes", "3", "-o", "{tmp}/x.json"],
             "exceeds cluster size"),
            (["snapshot", "--stripes", "-1", "-o", "{tmp}/x.json"],
             "--stripes must be >= 1"),
            (["gateway", "serve", "--snapshot", "{snap}", "--workdir",
              "{tmp}/w", "--transport", "tcp", "--listen", "127.0.0.1:1",
              "--peers", "0=127.0.0.1:2", "--client-floor", "1.5"],
             "bad --client-floor: client_floor"),
            (["repair", "--snapshot", "{snap}", "--stf", "0", "--racks", "0"],
             "bad --racks: need at least one rack"),
            (["daemon", "--snapshot", "{snap}", "--fleet", "{fleet}",
              "--helper-budget", "0"], "bad --helper-budget: helper_budget"),
            (["repair", "--snapshot", "{snap}", "--stf", "0",
              "--packet-size", "-4"], "bad --packet-size: packet_size"),
            (["snapshot", "--chunk-size", "0", "-o", "{tmp}/x.json"],
             "bad --chunk-size: chunk_size"),
            (["snapshot", "--hot-standby", "-1", "-o", "{tmp}/x.json"],
             "bad --hot-standby: num_hot_standby"),
        ],
        ids=[
            "snapshot-lrc", "code-rs-one-parameter", "code-msr-too-short",
            "agent-listen-port", "config-missing", "config-typo",
            "snapshot-missing", "plan-stf-unknown", "repair-stf-unknown",
            "lifetime-no-trials", "lifetime-too-few-disks",
            "lifetime-no-concurrency", "lifetime-no-years",
            "lifetime-afr-above-one", "lifetime-fleet-missing",
            "predict-fleet-missing", "predict-train-fraction",
            "daemon-fleet-missing", "fleet-no-disks", "fleet-afr-above-one",
            "snapshot-nodes-below-n", "snapshot-negative-stripes",
            "gateway-client-floor-above-one", "repair-no-racks",
            "daemon-no-helper-budget", "repair-negative-packet-size",
            "snapshot-no-chunk-size", "snapshot-negative-hot-standby",
        ],
    )
    def test_rejected_on_one_line(self, argv, message, tmp_path, capsys):
        from repro.failure import SmartTraceGenerator, save_traces

        snap = _small_snapshot(tmp_path)
        (tmp_path / "typo.json").write_text(json.dumps({"ack_timeoutt": 3}))
        fleet = tmp_path / "fleet.csv"
        save_traces(SmartTraceGenerator(12, horizon_days=5).generate(), fleet)
        argv = [a.format(tmp=tmp_path, snap=snap, fleet=fleet) for a in argv]
        captured = _one_line_exit_2(argv, capsys)
        assert message in captured.err
        assert not (tmp_path / "x.json").exists()
        assert not (tmp_path / "w").exists()


class TestRepairInvocation:
    """A flag mix that cannot run exits 2 before any driver, process or
    journal exists."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--transport", "shm", "--coordinators", "2",
              "--workdir", "{tmp}/w"], "single coordinator"),
            (["--transport", "tcp", "--workdir", "{tmp}/w"], "needs --peers"),
            (["--transport", "tcp", "--peers", "1=127.0.0.1:1"],
             "needs --workdir"),
            (["--transport", "shm"], "needs --workdir"),
            (["--peers", "1=127.0.0.1:1"], "only applies to --transport tcp"),
            (["--resume"], "--resume needs --journal"),
            (["--resume", "--journal", "{tmp}/j", "--coordinators", "2"],
             "single-coordinator"),
            (["--coordinators", "0"], "--coordinators must be"),
            (["--transport", "tcp", "--workdir", "{tmp}/w",
              "--peers", "garbage"], "bad --peers"),
        ],
        ids=[
            "shm-sharded", "tcp-without-peers", "tcp-without-workdir",
            "shm-without-workdir", "peers-on-memory", "resume-without-journal",
            "resume-sharded", "no-coordinators", "malformed-peers",
        ],
    )
    def test_rejected_before_anything_runs(
        self, flags, message, tmp_path, capsys, monkeypatch
    ):
        from repro.net import launch
        from repro.runtime import driver
        from repro.runtime.testbed import EmulatedTestbed

        def ran(*_args, **_kwargs):
            raise AssertionError("a rejected invocation reached the driver")

        monkeypatch.setattr(EmulatedTestbed, "__init__", ran)
        monkeypatch.setattr(launch, "open_network", ran)
        monkeypatch.setattr(driver, "run_repair", ran)
        snap = _small_snapshot(tmp_path)
        argv = ["repair", "--snapshot", str(snap), "--stf", "0"] + [
            f.format(tmp=tmp_path) for f in flags
        ]
        captured = _one_line_exit_2(argv, capsys)
        assert message in captured.err
        assert captured.out == ""  # rejected before planning, too
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cluster.json"]
