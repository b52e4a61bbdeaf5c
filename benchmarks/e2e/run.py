#!/usr/bin/env python3
"""End-to-end benchmark of the repair path and the object gateway.

Two ways to run it, both from the repository root:

``python3 benchmarks/e2e/run.py --seed 7 -o result.json [--trace] [--quick]``
    Every workload, one after another, each in its own child process;
    prints every metric by name with its unit and writes the result
    document (plus ``<result>.trace.json`` with ``--trace``).

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process.  The last line of standard output is
    one JSON object ``{"correct", "attempted", "failed", "metrics"}``
    holding the end-to-end metrics (``--trace 0``) or the per-layer
    metrics (``--trace 1``) that ``BENCHMARK.json`` lists.

Exit status is non-zero when any operation failed or returned wrong
bytes.  README.md in this directory explains workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from stats import describe, median, percentile, safe_div, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: everything a run writes lives here and is removed when it ends
WORK = HERE / ".work"

#: rigs built (and timed) per run; the last one is measured
SETUPS = 3
#: seconds of the workload's own activity before the timed window.
#: Long enough for caches, lazy GF tables and sockets, and for the
#: host to spread the agent threads over both cores after a
#: single-threaded set-up.
WARMUP_SECONDS = 2.0


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _import_system() -> None:
    """Put the program under test on the path; it is built from source
    in the checkout, so a directory without ``src/`` cannot run."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"e2e benchmark: no program to measure at {src}/repro; run from "
            "a checkout of the repository\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, str(src))


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def measure_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> dict:
    """Build the rig ``SETUPS`` times, run the workload, summarise."""
    from repro import Tracer

    import probes
    import workloads

    shape = workloads.SHAPES[name]
    if quick:
        shape = workloads.quick_shape(shape)
    ops = shape.load != "drain"
    if quick:
        warmup = workloads.Budget(60.0, 5 if ops else 1)
        timed = workloads.Budget(60.0, 60 if ops else 2)
        setups = 1
    else:
        warmup = workloads.Budget(WARMUP_SECONDS)
        timed = workloads.Budget(seconds)
        setups = SETUPS
    workdir = WORK / f"{name}-{seed}-{int(trace)}-{time.time_ns()}"
    tracer = Tracer(enabled=False)
    setup_seconds: List[float] = []
    rig = None
    try:
        for attempt in range(setups):
            if rig is not None:
                rig.close()
                rig = None
            started = time.perf_counter()
            rig = workloads.Rig(
                shape, seed, workdir / f"rig{attempt}", tracer
            )
            setup_seconds.append(time.perf_counter() - started)
        with tracer.span("workload", workload=name, seed=seed):
            measured = workloads.RUNNERS[shape.load](
                rig, warmup, timed, trace
            )
            layer: Dict[str, float] = {}
            budget: Dict[str, float] = {}
            if trace:
                tracer.enabled = True
                probed = probes.run_probes(
                    rig, workdir, effort=0.1 if quick else 1.0
                )
                layer, budget = summarise_layers(rig, measured, probed)
        journal_fsync = rig.config.journal_fsync
        rig.close()
        rig = None
    finally:
        if rig is not None:
            rig.close(check_errors=False)
        shutil.rmtree(workdir, ignore_errors=True)
    end_to_end = summarise_end_to_end(shape, measured, median(setup_seconds))
    if trace:
        layer["obs.spans"] = len(tracer.spans())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "traced": trace,
        "journal_fsync": journal_fsync,
        "shape": dict(shape.__dict__),
        "attempted": measured.attempted,
        "failed": measured.failed,
        "error_rate": measured.failed / max(measured.attempted, 1),
        "errors": measured.errors[:20],
        "samples": {k: len(v) for k, v in measured.samples.items()},
        "setup_samples": setup_seconds,
        "end_to_end": end_to_end,
        # min / max / IQR per sample kind: printed, never gated
        "context": {
            kind: describe(values)
            for kind, values in measured.samples.items()
        },
        "per_layer": layer,
        "budget": budget,
        "spans": tracer.to_dict() if trace else None,
    }


def _rate(nbytes: float, seconds: float) -> float:
    return nbytes / seconds / 1e6 if seconds > 0 else 0.0


def _p50(samples: Dict[str, List[float]], *kinds: str) -> float:
    """Median over the named sample kinds together; 0.0 when none exist."""
    values = [v for kind in kinds for v in samples.get(kind, ())]
    return median(values) if values else 0.0


def summarise_end_to_end(shape, measured, setup_s: float) -> Dict[str, float]:
    """The four metrics every workload reports (see README.md)."""
    samples, payload = measured.samples, measured.payload
    if shape.load == "drain":
        # Repaired bytes of one pass over the plan(s), at the median
        # drain time of each; a round is the paper's unit of repair.
        phases = [p for p in ("star", "chain") if samples.get(p)]
        nbytes = sum(payload[p] / len(samples[p]) for p in phases)
        seconds = sum(median(samples[p]) for p in phases)
        throughput = _rate(nbytes, seconds)
        latency = _p50(samples, "round")
    elif shape.load == "mixed":
        # Payload bytes over the time the operations took, each class
        # charged at its median so one stalled PUT cannot move it.
        kinds = [k for k in ("put", "get", "dget") if samples.get(k)]
        throughput = _rate(
            sum(payload[k] for k in kinds),
            sum(len(samples[k]) * median(samples[k]) for k in kinds),
        )
        latency = _p50(samples, "get")
    else:  # get-under-drain: the trade between the two is the point
        throughput = _rate(
            payload.get("star", 0), sum(samples.get("star", ()))
        )
        latency = _p50(samples, "get", "dget")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "throughput_mb_s": throughput,
        "latency_p50_ms": latency * 1e3,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }


def summarise_layers(rig, measured, probed: Dict[str, float]):
    """Per-layer metrics and the busy-seconds budget of one traced run.

    Registry numbers are per timed drain where the workload drains,
    else per client operation.
    """
    delta = measured.registry
    samples, payload = measured.samples, measured.payload
    star = samples.get("star", [])
    chain = samples.get("chain", [])
    drains = len(star) + len(chain)
    if rig.shape.load == "get-under-drain" and star:
        # Drains straddling the window's edges still fed the registry.
        drains = measured.wall / (sum(star) / len(star))
    client = [k for k in ("put", "get", "dget") if samples.get(k)]
    ops = sum(len(samples[k]) for k in client)
    per = drains if drains else ops
    layer = dict(probed)
    chain_model = layer.pop("sim.chain_model_s")

    def each(name: str, field: str = "sum") -> float:
        return safe_div(delta.total(name, field), per)

    drain_s = _p50(samples, "star")
    chain_s = _p50(samples, "chain")
    rounds_s = each("repair_round_seconds")
    repaired = safe_div(
        payload.get("star", 0) + payload.get("chain", 0), drains
    )
    sent = each("agent_bytes_sent_total")
    gets = samples.get("get", []) + samples.get("dget", [])
    layer.update({
        "ec.agent_decode_s": each("agent_decode_seconds"),
        "sim.model_ratio": safe_div(drain_s, layer["sim.model_s"]),
        "sim.chain_model_ratio": safe_div(chain_s, chain_model),
        "coordinator.round_s": rounds_s,
        "coordinator.round_gap_s": (
            safe_div(sum(star) + sum(chain), drains) - rounds_s
            if drains and rig.shape.load == "drain" else 0.0
        ),
        "coordinator.action_p50_s": delta.quantile(
            "repair_action_seconds", 0.5
        ),
        "coordinator.retries": delta.total("repair_retries_total"),
        "coordinator.replans": delta.total("repair_replans_total"),
        "coordinator.nacks": delta.total("repair_nacks_total"),
        "agent.staging_s": each("agent_staging_seconds"),
        "agent.bytes_sent": sent,
        "agent.traffic_amplification": safe_div(sent, repaired),
        "journal.fsync_s": each("journal_fsync_seconds"),
        "journal.records": each("journal_records_total"),
        "throttle.wait_s": each("ratelimiter_wait_seconds")
        + each("transport_throttle_wait_seconds"),
        "tcp.frames": (
            each("net_frames_sent_total") if rig.tcp is not None else 0.0
        ),
        "tcp.reconnects": delta.total("net_reconnects_total"),
        "tcp.rejected": delta.total("net_frames_rejected_total"),
        "store.get_idle_p50_ms": 1e3 * _p50(samples, "idle_get"),
        "store.degraded_share": safe_div(
            len(samples.get("dget", ())), len(gets)
        ),
        "arbiter.repair_wait_s": safe_div(
            delta.labelled("arbiter_wait_seconds", "cls=repair"), per
        ),
        "arbiter.client_bytes": safe_div(
            delta.labelled("arbiter_bytes_total", "cls=client"), per
        ),
        "arbiter.repair_bytes": safe_div(
            delta.labelled("arbiter_bytes_total", "cls=repair"), per
        ),
        "obs.trace_overhead_pct": 100.0 * safe_div(
            median(measured.traced) - median(measured.untraced),
            median(measured.untraced),
        ) if measured.traced and measured.untraced else 0.0,
        "drain.p50_s": drain_s,
        "drain.repaired_mb_s": _rate(
            safe_div(payload.get("star", 0), len(star)), drain_s
        ),
        "drain.chain_repaired_mb_s": _rate(
            safe_div(payload.get("chain", 0), len(chain)), chain_s
        ),
        "gateway.ops_per_s": safe_div(
            ops, sum(sum(samples[k]) for k in client)
        ),
        "gateway.put_p50_ms": 1e3 * _p50(samples, "put"),
        "gateway.get_p50_ms": 1e3 * _p50(samples, "get"),
        "gateway.dget_p50_ms": 1e3 * _p50(samples, "dget"),
        "gateway.get_p95_ms": 1e3 * (percentile(gets, 0.95) if gets else 0.0),
    })
    budget: Dict[str, float] = {}
    if rig.shape.load == "drain":
        wall = safe_div(sum(star) + sum(chain), drains)
        frames = layer["tcp.frames"]
        budget = {
            "drain_wall_s": wall,
            "ec.agent_decode_s": layer["ec.agent_decode_s"],
            "agent.staging_s": layer["agent.staging_s"],
            "journal.fsync_s": layer["journal.fsync_s"],
            "throttle.wait_s": layer["throttle.wait_s"],
            "coordinator.round_gap_s": layer["coordinator.round_gap_s"],
            "datanode.read_s": safe_div(
                sent / 1e6, layer["datanode.read_mb_s"]
            ),
            "datanode.write_promote_s": safe_div(
                repaired / 1e6, layer["datanode.write_promote_mb_s"]
            ),
            "transport.stream_s": safe_div(
                sent / 1e6,
                layer["tcp.stream_mb_s" if rig.tcp is not None
                      else "transport.mem_stream_mb_s"],
            ),
            "wire.frames_s": frames
            * (layer["wire.encode_us"] + layer["wire.decode_us"]) / 1e6,
        }
        layer["budget.unattributed_s"] = wall - sum(
            v for k, v in budget.items() if k != "drain_wall_s"
        )
        budget["unattributed_s"] = layer["budget.unattributed_s"]
    else:
        layer["budget.unattributed_s"] = 0.0
    return layer, budget


def run_one(args, spec: dict) -> int:
    """Driver mode: one workload, result object on the last line."""
    report = measure_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    spans = report.pop("spans")
    if spans is not None:
        target = Path(
            args.trace_out
            or WORK / f"{args.workload}-seed{args.seed}.trace.json"
        )
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(spans))
    if args.report:
        Path(args.report).write_text(json.dumps(report))
    wanted = spec["per_layer"] if report["traced"] else spec["end_to_end"]
    values = report["per_layer"] if report["traced"] else report["end_to_end"]
    print_report(report, spec)
    for error in report["errors"]:
        sys.stderr.write(f"e2e benchmark: {error}\n")
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


def print_report(report: dict, spec: dict) -> None:
    """Every metric of one workload run, by name, with its unit."""
    name = report["workload"]
    print(
        f"== {name}  seed={report['seed']} attempted={report['attempted']} "
        f"failed={report['failed']} error_rate={report['error_rate']:.4f}"
    )
    counts = ", ".join(f"{k}={v}" for k, v in sorted(report["samples"].items()))
    print(f"   samples: {counts}; setups: {len(report['setup_samples'])}")
    for metric in spec["end_to_end"]:
        value = report["end_to_end"][metric["name"]]
        print(
            f"   {metric['name']:<28} {value:>14.4f} {metric['unit']:<6} "
            f"({metric['better']} is better, bound {metric['bound']:.0%})"
        )
    for kind, context in sorted(report["context"].items()):
        print(
            f"   ~ {kind:<10} n={context['n']:<5} median={context['median']:.5f}s "
            f"min={context['min']:.5f} max={context['max']:.5f} "
            f"iqr={context['iqr']:.5f}"
        )
    if not report["traced"]:
        return
    for metric in spec["per_layer"]:
        value = report["per_layer"][metric["name"]]
        print(f"   {metric['name']:<28} {value:>14.4f} {metric['unit']}")
    if report["budget"]:
        print("   busy-seconds budget per drain (estimate, not a critical path):")
        for key, value in report["budget"].items():
            print(f"     {key:<28} {value:>10.4f} s")


# ----------------------------------------------------------------------
# every workload, each in a child process
# ----------------------------------------------------------------------


def environment() -> dict:
    import numpy

    def git(*command: str) -> Optional[str]:
        try:
            return subprocess.run(
                ["git", *command], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None  # the driver's checkout is not a git repository

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def run_all(args, spec: dict) -> int:
    """Full mode: all workloads x repeats, untraced then traced."""
    WORK.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": "e2e-bench/1",
        "command": spec["command"],
        "env": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "repeats": args.repeats,
        "load_model": "closed loop, one client thread per workload",
        "metrics": {
            m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
            for m in spec["end_to_end"]
        },
        "per_layer_units": {
            m["name"]: {"unit": m["unit"], "better": m["better"]}
            for m in spec["per_layer"]
        },
        "workloads": {},
    }
    traces = {}
    failed = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        passes = [(0, r) for r in range(args.repeats)]
        if args.trace:
            passes.append((1, 0))
        for trace, repeat in passes:
            report_path = WORK / f"report-{name}-{trace}-{repeat}.json"
            trace_path = WORK / f"spans-{name}.json"
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(args.seed + repeat),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
                "--report", str(report_path),
                "--trace-out", str(trace_path),
            ] + (["--quick"] if args.quick else [])
            child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            # the child's table, minus its machine-readable last line
            sys.stdout.write("\n".join(child.stdout.splitlines()[:-1]) + "\n")
            sys.stdout.flush()
            if not report_path.exists():
                sys.stderr.write(
                    f"e2e benchmark: {name} exited {child.returncode} "
                    "without a report\n"
                )
                failed += 1
                continue
            report = json.loads(report_path.read_text())
            report_path.unlink()
            document["journal_fsync"] = report["journal_fsync"]
            failed += report["failed"] + (child.returncode != 0)
            if trace:
                traces[name] = json.loads(trace_path.read_text())
                trace_path.unlink()
                document["workloads"][name]["traced"] = report
            else:
                runs.append(report)
                document["workloads"].setdefault(name, {"why": workload["why"]})
        if not runs:
            continue
        entry = document["workloads"][name]
        entry["runs"] = runs
        entry["attempted"] = sum(r["attempted"] for r in runs)
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["error_rate"] = entry["failed"] / max(entry["attempted"], 1)
        entry["samples"] = runs[0]["samples"]
        entry["end_to_end"] = {}
        for metric in spec["end_to_end"]:
            values = [r["end_to_end"][metric["name"]] for r in runs]
            entry["end_to_end"][metric["name"]] = {
                "median": median(values),
                "values": values,
                "spread": spread(values),
                "unit": metric["unit"],
            }
    print("\n== summary (median over %d run(s) per workload)" % args.repeats)
    for name, entry in document["workloads"].items():
        cells = "  ".join(
            f"{metric}={body['median']:.4g}{body['unit']}"
            for metric, body in entry.get("end_to_end", {}).items()
        )
        print(f"   {name:<24} error_rate={entry.get('error_rate', 1):.4f}  {cells}")
    if args.output:
        Path(args.output).write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {args.output}")
        if args.trace:
            target = Path(args.output + ".trace.json")
            target.write_text(json.dumps(traces))
            print(f"wrote {target}")
    try:
        WORK.rmdir()  # only if no other run is using it
    except OSError:
        pass
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float,
        help="length of each run's timed window "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="traced pass: per-layer metrics, budget and the span file",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="64 KiB chunks, 2 drains / 60 ops, one set-up (smoke test)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="untraced runs per workload in full mode (seed, seed+1, ...)",
    )
    parser.add_argument("-o", "--output", help="result document (full mode)")
    parser.add_argument("--report", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_system()
    spec = _load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
