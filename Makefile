# Developer entry points.  CI runs the same commands (see
# .github/workflows/ci.yml); PYTHONPATH=src keeps everything runnable
# without an editable install.

PY := PYTHONPATH=src python

.PHONY: test report profile pairs packet-sweep

test:
	$(PY) -m pytest -x -q tests/

# REPORT.md and figures/*.svg are generated output only: re-fold
# benchmarks/results/*.json (written by `pytest benchmarks/
# --benchmark-only`) and commit the result.  Hand-written commentary
# goes into benchmarks/results/<id>.notes.md.
report:
	$(PY) -m repro.bench.report benchmarks/results -o REPORT.md
	rm -f figures/*.svg
	$(PY) -m repro.bench.plots benchmarks/results -o figures

# cProfile one quick run of an end-to-end workload (default
# drain-cpu-mem):  make profile [WORKLOAD=gateway-mixed-cpu]
# profile.prof feeds any flamegraph tool (e.g. snakeviz/flameprof),
# profile.txt is the top functions by cumulative time, readable as-is.
# cProfile sees only the calling thread: work handed to a pool (the
# gateway's chunk hashing) shows up as time waiting on it.
profile: WORKLOAD ?= drain-cpu-mem
profile:
	$(PY) -m cProfile -o profile.prof benchmarks/e2e/run.py \
		--workload $(WORKLOAD) --quick
	python3 -c "import pstats, sys; pstats.Stats('profile.prof', \
		stream=sys.stdout).sort_stats('cumulative').print_stats(60)" \
		> profile.txt

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
