#!/usr/bin/env bash
# Build the benchmark once, run every workload untraced and then traced, and
# print `workload metric value unit` for every metric.
#
# usage: benchmark/run.sh [SEED [SECONDS]]     (defaults: 1 and 20)
#
# Each run's full output goes to benchmark/out/<workload>.untraced.txt or
# <workload>.traced.txt; traced runs also write <workload>.spans.jsonl.
# Exits 1 if any run failed its correctness gate.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-20}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
mkdir -p benchmark/out

workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0
for w in $workloads; do
    for mode in untraced traced; do
        trace=0
        [ "$mode" = traced ] && trace=1
        log="benchmark/out/$w.$mode.txt"
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" >"$log" || status=1
        tail -n 1 "$log" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
for name, m in doc["metrics"].items():
    print(sys.argv[1], name, m["value"], m["unit"])
if not doc["correct"]:
    print(sys.argv[1], "FAILED", doc["failed"], "of", doc["attempted"], "checks")
' "$w"
    done
done
exit "$status"
