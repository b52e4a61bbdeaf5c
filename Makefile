# Developer entry points.  CI runs the same commands (see
# .github/workflows/ci.yml); PYTHONPATH=src keeps everything runnable
# without an editable install.

PY := PYTHONPATH=src python

.PHONY: test bench-smoke bench-hotpath profile pairs packet-sweep

test:
	$(PY) -m pytest -x -q tests/

# Regenerate the committed bench documents.  --fail-on-regression
# compares each figure against the committed file before overwriting:
# a schema-identical config that comes out >30% slower exits non-zero.
bench-smoke:
	$(PY) -m repro.bench.smoke -o BENCH_repair_rounds.json \
		--net-output BENCH_net_throughput.json \
		--hotpath BENCH_hotpath.json \
		--fail-on-regression

# Hot-path sweep only (GF kernels + per-transport throughput).
bench-hotpath:
	$(PY) -m repro.bench.smoke -o /tmp/bench_repair_rounds.json \
		--net-output '' --hotpath BENCH_hotpath.json

# cProfile the instrumented repair; profile.prof feeds any flamegraph
# tool (e.g. snakeviz/flameprof), profile.txt is readable as-is.
profile:
	$(PY) -m repro.bench.smoke -o /tmp/bench_repair_rounds.json \
		--net-output '' --profile-out profile

# Alternating parent/change pairs of one benchmarks/e2e workload, with
# the choosing-metrics verdict (>= 9/10 wins and median gap > parent
# IQR):  make pairs PARENT=HEAD~1 WORKLOAD=drain-cpu-mem [PAIRS=10 SEED=7]
PAIRS ?= 10
SEED ?= 7
pairs:
	python3 tools/pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed $(SEED)

# End-to-end packet-size sweep of one drain rig against the size
# core.analysis.optimal_packet_size picks for it; non-zero when the pick
# is more than 5 % slower than the best swept size:
#   make packet-sweep WORKLOAD=drain-cpu-mem [SWEEP_ARGS=--quick]
packet-sweep:
	python3 tools/packet_sweep.py --workload $(WORKLOAD) --seed $(SEED) \
		$(SWEEP_ARGS)
