#!/usr/bin/env bash
# Full CI pass: configure, build, run the test suite and the benchmark's
# own tests, regenerate every committed result, smoke-run every example,
# exercise the CLI and the fleet, run the whole test suite under ASan/UBSan,
# and last the wall-clock perf gates.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build  # reuse the existing generator if configured
cmake --build build

ctest --test-dir build --output-on-failure

echo "== perfbench tests: the benchmark's worlds are the runners' worlds"
# perfbench builds its worlds through public calls only; perfbench_test
# checks them bit for bit against run_indoor, run_outdoor and run_chaos, so
# a runner change that the benchmark would no longer time fails here.
cmake -S perfbench -B build-perfbench -G Ninja
cmake --build build-perfbench
ctest --test-dir build-perfbench --output-on-failure --no-tests=error

echo "== paper: every committed results/*.txt"
# bench/paper renders every paper figure and design study, each world run
# once. The committed figures and tables are what the code prints: a change
# that moves any of them must regenerate and commit it.
./build/bench/paper > /dev/null
git diff --exit-code -- 'results/*.txt' \
  || { echo "FAIL: committed results/*.txt no longer match the code"; exit 1; }

for e in build/examples/*; do
  echo "== example: $(basename "$e")"
  "$e" > /dev/null
done

echo "== cli smoke"
# Strict numeric parsing: non-numeric, trailing-junk, and out-of-range
# arguments exit 2 with a diagnostic (atoll/atof silently accepted these).
for bad in "--seed garbage" "--seed 1e3" "--drain-hops 3x" "--beta nope" \
    "--coded-k 0" "--coded-n 300" "--coded-k 6 --coded-n 4" \
    "--drain-sinks 9" "--drain-sinks x" "--drain-hops 0" \
    "--drain-resource /chunks/bogus" "--drain-resource /chunks/time/0-1e12" \
    "--scenario outdoor --mode uncoordinated" \
    "--faults crash=nan" "--scenario mobile --trc 0" \
    "--scenario indoor --horizon 40"; do
  rc=0
  # shellcheck disable=SC2086
  ./build/tools/enviromic_cli $bad > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || { echo "FAIL: '$bad' should exit 2, got $rc"; exit 1; }
done
# The seeded runs below append their --json records to the committed
# results/cli_records.jsonl (one per scenario, plus the coded and drain chaos
# lines); after the drain line the file must match what is committed.
records=results/cli_records.jsonl
rm -f "$records"
./build/tools/enviromic_cli --scenario mobile --json "$records" > /dev/null
./build/tools/enviromic_cli --scenario indoor --horizon 300 --sample 300 \
  --json "$records" > /dev/null
./build/tools/enviromic_cli --scenario voice --json "$records" > /dev/null
# Every scenario honours the observers: an indoor run exports telemetry
# samples, and a health probe trips an outdoor run (exit 1, trip printed).
./build/tools/enviromic_cli --scenario indoor --horizon 120 --sample 60 \
  --series build/indoor_series.csv > /dev/null 2>&1
[ "$(wc -l < build/indoor_series.csv)" -gt 1 ] \
  || { echo "FAIL: indoor --series wrote no samples"; exit 1; }
rc=0
./build/tools/enviromic_cli --scenario outdoor --horizon 120 \
  --probe battery_floor=1e9 > build/outdoor_probe.txt 2>/dev/null || rc=$?
[ "$rc" -eq 1 ] && grep -q "health trip: battery_floor" build/outdoor_probe.txt \
  || { echo "FAIL: outdoor probe should trip and exit 1, got $rc"; exit 1; }
# --profile prints the run loop's per-component host time after the summary.
./build/tools/enviromic_cli --scenario outdoor --horizon 600 --profile \
  --json "$records" > build/outdoor_profile.txt
grep -Eq "^  protocol_dispatch +[0-9]+ fires" build/outdoor_profile.txt \
  || { echo "FAIL: outdoor --profile printed no protocol_dispatch line"; exit 1; }
# Chaos path exits nonzero if any end-state invariant is violated.
./build/tools/enviromic_cli --faults crash=0.3,downtime=60,burst=1 \
  --horizon 900 --seed 3 --json "$records"
./build/tools/enviromic_cli --faults crash=0.5,downtime=45,brownout=0.3,clockstep=0.3,asym=0.2 \
  --horizon 900 --seed 9 > /dev/null

echo "== coded chaos smoke"
# Erasure-coded dispersal under a permanent-death storm: the invariant gate
# still applies (nonzero exit on violation), and the payload census must
# report reconstructible payloads surviving the deaths.
./build/tools/enviromic_cli \
  --faults crash=0.5,downtime=45,permanent=1,lose_data=1 \
  --storage-policy coded --coded-k 2 --coded-n 4 \
  --horizon 900 --seed 424 --json "$records" | tee build/coded_smoke.txt
grep -E 'payloads\[coded\]: total=[0-9]+ reconstructible=[1-9]' \
  build/coded_smoke.txt > /dev/null \
  || { echo "FAIL: coded smoke reconstructed nothing"; exit 1; }

echo "== retrieval drain smoke"
# Two corner sinks flood tree queries and drain the field through the chaos
# storm: the end-state invariant gate still applies (nonzero exit on
# violation), the printed retrieval line must report collected chunks, and
# the JSON record (the last one in the records file) must carry the
# retrieval_* accounting keys.
./build/tools/enviromic_cli --faults crash=0.3,downtime=45,burst=1 \
  --horizon 300 --seed 11 --drain-sinks 2 --drain-hops 10 \
  --json "$records" | tee build/retrieval_smoke.txt
grep -E 'retrieval\[/chunks/all sinks=2 hops=10\]: eligible=[0-9]+ collected=[1-9]' \
  build/retrieval_smoke.txt > /dev/null \
  || { echo "FAIL: retrieval smoke collected nothing"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json, sys
rec = json.loads(open("results/cli_records.jsonl").readlines()[-1])
m = rec["metrics"]
need = ["retrieval_sinks", "retrieval_eligible", "retrieval_collected",
        "retrieval_late_arrivals", "retrieval_double_uploads",
        "retrieval_miss_ratio",
        "retrieval_drain_span_s", "retrieval_chunks_relayed",
        "retrieval_descriptor_acks"]
missing = [k for k in need if k not in m]
if missing:
    sys.exit(f"FAIL: retrieval record missing {missing}")
if m["retrieval_sinks"] != 2 or m["retrieval_collected"] <= 0:
    sys.exit(f"FAIL: retrieval record sinks={m['retrieval_sinks']} "
             f"collected={m['retrieval_collected']}")
if not 0.0 <= m["retrieval_miss_ratio"] <= 1.0:
    sys.exit(f"FAIL: miss ratio {m['retrieval_miss_ratio']} out of [0,1]")
# Late arrivals were recorded after the drain started: collected, but not
# eligible. The miss ratio counts the eligible keys the sinks did collect.
eligible, late = m["retrieval_eligible"], m["retrieval_late_arrivals"]
got = m["retrieval_collected"] - late
if eligible <= 0 or abs(1.0 - got / eligible - m["retrieval_miss_ratio"]) > 1e-12:
    sys.exit(f"FAIL: miss ratio {m['retrieval_miss_ratio']} is not "
             f"1 - {got:.0f}/{eligible:.0f}")
print(f"retrieval smoke OK: {got:.0f}/{eligible:.0f} eligible chunks "
      f"collected (+{late:.0f} late), "
      f"miss {m['retrieval_miss_ratio']:.3f}, "
      f"span {m['retrieval_drain_span_s']:.1f}s")
EOF
fi
git diff --exit-code -- "$records" \
  || { echo "FAIL: committed $records no longer matches the CLI"; exit 1; }

echo "== fleet smoke"
# Small campaigns through the multi-process runner: the merged report must
# parse as JSON and be byte-identical between -j1 and -j2 (determinism by
# sorting, not by arrival order), and bad fleet arguments exit 2.
./build/tools/enviromic_fleet --scenario chaos --seeds 2 \
  --sweep crash=0.2,0.4 --horizon 120 --faults downtime=30 \
  -j 2 --out build/fleet_j2.json > /dev/null
./build/tools/enviromic_fleet --scenario chaos --seeds 2 \
  --sweep crash=0.2,0.4 --horizon 120 --faults downtime=30 \
  -j 1 --out build/fleet_j1.json > /dev/null
cmp build/fleet_j1.json build/fleet_j2.json \
  || { echo "FAIL: fleet -j1 vs -j2 reports differ"; exit 1; }
# Resume over the complete report re-runs nothing and keeps the bytes.
./build/tools/enviromic_fleet --scenario chaos --seeds 2 \
  --sweep crash=0.2,0.4 --horizon 120 --faults downtime=30 \
  -j 2 --resume build/fleet_j1.json --out build/fleet_resume.json \
  2> build/fleet_resume.log > /dev/null
cmp build/fleet_j1.json build/fleet_resume.json \
  || { echo "FAIL: fleet resume changed the report bytes"; exit 1; }
grep -q "4 worlds (4 resumed), 0 launched" build/fleet_resume.log \
  || { echo "FAIL: fleet resume re-ran completed worlds"; exit 1; }
# Every scenario of the table runs in the fleet, voice included.
./build/tools/enviromic_fleet --scenario voice --seeds 2 -j 1 \
  --out build/fleet_voice_j1.json 2> /dev/null
./build/tools/enviromic_fleet --scenario voice --seeds 2 -j 2 \
  --out build/fleet_voice_j2.json 2> /dev/null
cmp build/fleet_voice_j1.json build/fleet_voice_j2.json \
  || { echo "FAIL: fleet voice -j1 vs -j2 reports differ"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json, sys
r = json.load(open("build/fleet_j1.json"))
if r["worlds"] != 4 or r["failed"] != 0 or len(r["rows"]) != 4:
    sys.exit(f"FAIL: fleet report shape {r['worlds']}/{r['failed']}")
print(f"fleet smoke OK: {r['worlds']} worlds, {len(r['aggregates'])} points")
EOF
fi
for bad in "--seed garbage" "--seeds 0" "--scenario bogus" \
    "--sweep nope=1,2" "--coded-k 0 --coded-n 5" "--set grid_nx=-3" \
    "--scenario indoor --horizon 40"; do
  rc=0
  # shellcheck disable=SC2086
  ./build/tools/enviromic_fleet $bad > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || { echo "FAIL: fleet '$bad' should exit 2, got $rc"; exit 1; }
done

echo "== fleet drain smoke"
# A drain_sinks sweep mixes chaos records with and without the retrieval
# block: every CSV row must still fill the header's columns, and the
# draining worlds must report their retrieval accounting.
./build/tools/enviromic_fleet --scenario chaos --seeds 2 \
  --sweep drain_sinks=0,2 --horizon 120 --faults crash=0.3,downtime=45 \
  --csv build/fleet_drain.csv > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import csv, sys
rows = list(csv.reader(open("build/fleet_drain.csv")))
header, body = rows[0], rows[1:]
bad = [r for r in body if len(r) != len(header)]
if len(body) != 4 or bad:
    sys.exit(f"FAIL: {len(bad)} of {len(body)} drain rows mismatch header "
             f"arity {len(header)}")
col = {name: i for i, name in enumerate(header)}
for name in ("executed_events", "retrieval_miss_ratio"):
    if name not in col:
        sys.exit(f"FAIL: drain report has no {name} column")
if any(r[col["executed_events"]] == "" for r in body):
    sys.exit("FAIL: a drain row left executed_events empty")
drained = [r for r in body if r[0] == "drain_sinks=2"]
if not drained or any(r[col["retrieval_miss_ratio"]] == "" for r in drained):
    sys.exit("FAIL: a drain_sinks=2 row has no retrieval_miss_ratio")
print(f"fleet drain smoke OK: {len(body)} rows x {len(header)} columns")
EOF
fi

echo "== traced chaos smoke"
./build/tools/enviromic_cli --faults crash=0.3,downtime=60,burst=1 \
  --horizon 600 --seed 5 \
  --trace build/trace_smoke.json --series-interval 30 > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json, sys
t = json.load(open("build/trace_smoke.json"))
evs = t["traceEvents"]
kinds = {e.get("ph") for e in evs}
# Spans, instants, and the telemetry series as counter tracks.
if not evs or not {"X", "i", "C"} <= kinds:
    sys.exit(f"FAIL: trace smoke has {len(evs)} events, phases {kinds}")
print(f"trace smoke OK: {len(evs)} events, phases {sorted(kinds)}")
EOF
fi

echo "== jsonl export smoke"
# A .jsonl trace or series export holds simulated history only, so two runs
# of one seed must write byte-identical files.
for run in a b; do
  ./build/tools/enviromic_cli --faults crash=0.3,downtime=60,burst=1 \
    --horizon 300 --seed 5 --series-interval 30 \
    --trace "build/trace_$run.jsonl" --series "build/series_$run.jsonl" \
    > /dev/null
done
for f in trace series; do
  [ -s "build/${f}_a.jsonl" ] || { echo "FAIL: the $f export is empty"; exit 1; }
  cmp "build/${f}_a.jsonl" "build/${f}_b.jsonl" \
    || { echo "FAIL: two runs of one seed exported different $f files"; exit 1; }
done
head -c 64 build/series_a.jsonl | grep -q '^{"telemetry_schema"' \
  || { echo "FAIL: the series export does not open with telemetry_schema"; exit 1; }
echo "jsonl export smoke OK: $(wc -l < build/trace_a.jsonl) trace records"

echo "== telemetry series smoke"
# Series-enabled chaos run: the telemetry plane lands as a columnar CSV
# whose rows all match the header arity and whose timestamps are strictly
# monotone; an unreachable health probe must not trip (nonzero exit if it
# does). The telemetry-off cost is bounded by the chaos_200 gates at the
# end — the series recorder is dark in every timed run.
./build/tools/enviromic_cli --faults crash=0.3,downtime=60,burst=1 \
  --horizon 600 --seed 5 \
  --series build/series_smoke.csv --series-interval 5 \
  --probe battery_floor=1 > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import sys
rows = [l.rstrip("\n").split(",") for l in open("build/series_smoke.csv")]
header, body = rows[0], rows[1:]
if header[0] != "t_s" or "flash_used_bytes" not in header:
    sys.exit(f"FAIL: series header starts {header[:3]}")
bad = [r for r in body if len(r) != len(header)]
if not body or bad:
    sys.exit(f"FAIL: {len(bad)} series rows mismatch header arity "
             f"{len(header)} ({len(body)} rows)")
ts = [float(r[0]) for r in body]
if ts != sorted(ts) or len(set(ts)) != len(ts):
    sys.exit("FAIL: series timestamps not strictly monotone")
print(f"series smoke OK: {len(body)} samples x {len(header) - 1} series")
EOF
fi
# Bad sampling intervals and probe specs get the usage exit code; a fleet
# series interval without a directory (or vice versa) is rejected the same
# way.
for bad in "--series-interval 0" "--series-interval -5" \
    "--series-interval fast" "--probe nope=1" "--probe battery_floor=low"; do
  rc=0
  # shellcheck disable=SC2086
  ./build/tools/enviromic_cli $bad > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || { echo "FAIL: '$bad' should exit 2, got $rc"; exit 1; }
done
rc=0
./build/tools/enviromic_fleet --scenario chaos --series-interval 1 \
  > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: fleet series without dir should exit 2, got $rc"; exit 1; }

echo "== asan/ubsan build + the whole test suite"
cmake -B build-asan -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -O1 -fno-omit-frame-pointer"
cmake --build build-asan
ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
./build-asan/tools/enviromic_cli --faults crash=0.5,downtime=45,burst=1 \
  --horizon 600 --seed 7 > /dev/null

# The wall-clock gates run last, so that a slow or noisy machine cannot hide
# the result of any deterministic step above.
echo "== perf smoke (regression gate vs committed baseline)"
# Exits 2 when a deterministic check fails (indexed/linear or repeat-seed
# divergence, invariants, survival) and 3 when only the host's timing fails:
# a gated scenario — the 200-node chaos soak, the windowed migration drain
# (migrate_windowed_ms), the coded chaos leg, or the 2-sink retrieval drain
# (retrieval_drain_2_ms) — regresses more than 25% against the committed
# trajectory point, or the fleet's -jN speed-up falls under 0.7 x its ideal.
# Exit 2 wins when both kinds fail. Writes the quick-mode numbers next to the
# committed full-mode trajectory point, never over it (only
# scripts/run_bench.sh updates that).
./build/bench/perf_substrates --quick \
  --out results/BENCH_sim.ci.json \
  --baseline results/BENCH_sim.json \
  --max-regress 0.25

if command -v python3 >/dev/null 2>&1; then
  echo "== trace-disabled overhead + profiler attribution checks"
  # The gated chaos_200 timing run executes with tracing fully disabled, so
  # its wall clock vs the committed baseline bounds the cost of the dormant
  # instrumentation branches: a tighter 5% budget on top of the 25% gate.
  python3 - <<'EOF'
import json, sys
ci = json.load(open("results/BENCH_sim.ci.json"))["results"]
base = json.load(open("results/BENCH_sim.json"))["results"]
now, ref = ci["chaos_200_ms"], base["chaos_200_ms"]
print(f"trace-disabled chaos_200: {now:.1f} ms vs baseline {ref:.1f} ms")
if ref > 0 and now > ref * 1.05:
    sys.exit(f"FAIL: trace-disabled chaos_200 overhead {now/ref-1:.1%} > 5%")
pct = sum(v for k, v in ci.items()
          if k.startswith("prof_chaos_200_") and k.endswith("_pct"))
print(f"profiler attribution sum: {pct:.2f}%")
if not 95.0 <= pct <= 105.0:
    sys.exit(f"FAIL: profiler attribution sums to {pct:.2f}%, not ~100%")
# Budget gate for the delivery fan-out: channel_delivery sat at ~35% of
# run-loop self time before the flattening; keep it from creeping back
# toward that cost profile.
deliv = ci.get("prof_chaos_200_channel_delivery_pct")
print(f"channel_delivery attribution: {deliv:.2f}% (budget 25%)")
if deliv is None or deliv > 25.0:
    sys.exit(f"FAIL: channel_delivery at {deliv}% of chaos_200, budget 25%")
EOF
else
  echo "== python3 not found; skipping overhead/attribution checks"
fi

echo "CI OK"
