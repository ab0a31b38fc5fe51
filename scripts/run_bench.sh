#!/usr/bin/env bash
# Run the wall-clock perf harness and (re)write the perf trajectory point at
# results/BENCH_sim.json. Covers the event-queue churn, the broadcast storms
# (carrier sense off and the CSMA-on backoff variant), the chaos soaks, and
# the migration drain (windowed bulk-transfer pipeline vs the stop-and-wait
# window=1 degenerate), plus the scheduler-profiled chaos runs whose
# per-component wall-time attribution (prof_chaos_*_pct keys) answers
# ROADMAP's "is the event queue >15%?" question, the telemetry overhead leg
# (telemetry_* keys: the gated chaos_200 with the series recorder lit at 1 s
# cadence, bit-compared against the dark run), and the fleet scaling leg
# (fleet_* keys: a 16-world chaos campaign at -j1 vs -jN with byte-compared
# reports and merged series bands). Every storm and chaos leg runs twice on
# its seed and must match bit for bit. Pass --quick for the CI smoke lane
# (shorter horizons, no 500-node soak, no 500-node attribution run);
# any further args go straight through to perf_substrates.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build >/dev/null  # reuse the existing generator
cmake --build build --target perf_substrates >/dev/null

mkdir -p results
./build/bench/perf_substrates \
  --out results/BENCH_sim.json \
  --baseline results/BENCH_sim.json \
  "$@"
