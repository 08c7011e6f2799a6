# Developer entry points.  PYTHONPATH=src keeps everything runnable
# without an editable install.
PY := PYTHONPATH=src python

.PHONY: test test-equiv test-faults bench bench-speed bench-gate \
	profile-smoke predict-smoke dse-smoke chaos-smoke serve-smoke ci reach

test:
	$(PY) -m pytest -x -q

# Fault-injection smoke: the seeded RAS campaigns (ECC, sync, stall,
# cache, checkpoint) plus the faults-off byte-identity gate.
test-faults:
	$(PY) -m pytest -q -m faults

# Equivalence gates: columnar trace aggregates vs the legacy event walk;
# the engine drain (flat, queue and extrapolated paths; every ISA
# class, deadlocks, lowered programs) vs the fixpoint oracle in
# tests/core/oracle.py; arena lowering (dense, sparse and
# weight-stationary GEMMs, vector streams, workloads, memo hits) vs
# the per-object emitters in tests/compiler/lowering_oracle.py; the
# one-pass tiling table vs the scalar search in
# tests/compiler/tiling_oracle.py; the event-driven serving loop and
# its early-stopping admission rounds vs the self-contained per-step
# loop in tests/serving/oracle.py (its own admission and KV ledger, so
# it covers admission too); the one-pass cache
# key encoder (layer, model and sweep-job keys) vs the dict-then-json
# encoder in tests/compiler/key_oracle.py; the bulk request draws and
# the columnar arrivals and length picks of the traffic generator vs
# one numpy generator and scalar arithmetic per request in
# tests/serving/traffic_oracle.py; the step-cost model's counters from
# per-bucket sums vs adding every layer of every charged bucket in
# tests/serving/counters_oracle.py, with the perfbench serve counters
# pinned by digest; and the batched predictor feature extractor vs the
# per-layer scalar extractor in tests/perf/features_oracle.py.
test-equiv:
	$(PY) -m pytest -q tests/core/test_trace_columnar.py \
		tests/core/test_engine_equivalence.py \
		tests/core/test_engine_fast_drain.py \
		tests/core/test_deadlock_report.py \
		tests/compiler/test_lowering_arena.py \
		tests/compiler/test_lowering_memo.py \
		tests/compiler/test_tiling_equivalence.py \
		tests/compiler/test_key_equivalence.py \
		tests/serving/test_scheduler_equivalence.py \
		tests/serving/test_traffic_equivalence.py \
		tests/serving/test_stepcost_counters.py \
		tests/perf/test_batch_features.py

bench:
	$(PY) -m pytest benchmarks/ -q

bench-speed:
	$(PY) benchmarks/bench_sim_speed.py --smoke

# Perf gate: fail if the resnet50@ascend cold compile regresses more
# than 2x over the last recorded trajectory baseline.
bench-gate:
	$(PY) benchmarks/bench_sim_speed.py --gate

# Profiling smoke: the zero-to-flamechart CLI path on a small model —
# counters + roofline report, Perfetto trace, manifest — into a temp dir.
profile-smoke:
	$(PY) -m repro.profiling.cli run gesture --soc ascend-lite \
		--chrome-trace $${TMPDIR:-/tmp}/repro_profile_smoke.json \
		--manifest $${TMPDIR:-/tmp}/repro_profile_smoke.manifest.json

# Predictor smoke: fixed-seed micro-train of the learned cycle
# predictor plus one validated 200-candidate triage sweep, on a private
# empty compile cache so both timed legs start cold; fails unless
# held-out MAPE <= 15%, the triage tier is >= 10x faster end-to-end
# than simulate-everything, and the true top-5 designs all land in the
# simulated shortlist.
predict-smoke:
	$(PY) -m repro.perf.predictor smoke

# DSE smoke: a fixed-seed 2-generation predictor-gated search over the
# 288-point validation slice must reproduce the exact brute-force
# Pareto frontier while simulating >= 10x fewer candidates than the
# exhaustive sweep.
dse-smoke:
	$(PY) -m repro.dse smoke

# Chaos smoke: the same fixed-seed DSE search run through the sweep
# supervisor under a seeded host-side chaos campaign (worker kills,
# 30 s job hangs caught by a 2 s timeout, corrupted payloads) must
# still recover the exact brute-force frontier — with >= 1 kill,
# >= 1 timeout-recovered hang, and >= 1 corrupted payload actually
# injected, and zero quarantined jobs.  The failure-report artifact
# lands in benchmarks/results/chaos_smoke.json.
chaos-smoke:
	$(PY) -m repro.dse chaos-smoke

# Serving smoke: a fixed-seed 10k-request two-tenant campaign runs
# twice under continuous batching (the reports must be byte-identical,
# pinned by digest) and once under static batching on the same trace
# and compiled step costs — continuous must strictly beat static on
# goodput.  The artifact lands in benchmarks/results/serving_smoke.json.
serve-smoke:
	$(PY) -m repro.serving smoke

# CI gate: the tier-1 suite, the equivalence suites, the
# fault-injection smoke suite, a ~10 s simulator-speed smoke run, the
# cold-compile perf gate, the predictor fast-tier smoke gate, the DSE
# search exactness gate, the host-side chaos recovery gate, the
# serving reproducibility/goodput gate, and the profiling CLI smoke
# run.
ci: test test-equiv test-faults bench-speed bench-gate predict-smoke \
	dse-smoke chaos-smoke serve-smoke profile-smoke

# Reach report: which src/ functions the entry points run.  Runs the
# examples, the smokes, the README's CLI commands, pytest benchmarks/
# and the four perfbench workloads under a call-only trace hook, then
# tier-1, all in a temporary copy of the tree (this checkout is left
# byte-identical), and prints each function's class: entry, test-only
# or never.  ~9 min on a 2-CPU host.  Not part of ci.  The committed
# report is benchmarks/results/reach.txt.
reach:
	python benchmarks/reach.py
