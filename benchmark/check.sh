#!/usr/bin/env bash
# Self-test of the benchmark package: fmt, clippy -D warnings, the
# metric tables against BENCHMARK.json, a --smoke run of every workload
# (end to end and traced) and --compare on its result files.
# Run from anywhere; takes well under a minute after the first build.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
results=benchmark/results
mkdir -p "$results"

cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
cargo build --offline --release --manifest-path "$manifest"
bench() { cargo run --offline --release --quiet --manifest-path "$manifest" -- "$@"; }

# BENCHMARK.json must list exactly the names the binary prints.
bench --list-metrics > "$results/metrics.txt"
python3 - "$results/metrics.txt" <<'PY'
import json, sys
spec = json.load(open("BENCHMARK.json"))
listed = {"end_to_end": [], "per_layer": [], "workload": []}
for line in open(sys.argv[1]):
    kind, name, *_ = line.split()
    listed[kind].append(name)
for key, names in (("end_to_end", listed["end_to_end"]),
                   ("per_layer", listed["per_layer"]),
                   ("workloads", listed["workload"])):
    declared = [m["name"] for m in spec[key]]
    if declared != names:
        sys.exit(f"BENCHMARK.json {key} differs from the binary: "
                 f"{sorted(set(declared) ^ set(names))}")
print("BENCHMARK.json matches the metric tables")
PY

bench --smoke --repeats 3 --out "$results/smoke_a.result.json" > "$results/smoke_a.log"
bench --smoke --repeats 3 --out "$results/smoke_b.result.json" > "$results/smoke_b.log"
bench --smoke --trace 1 > "$results/smoke_trace.log"
grep -h "^bench.tile_error" "$results/smoke_trace.log"

# A file against itself must pass; two smoke runs are shown for
# information only, since 20×-shrunk runs are too short to gate on.
bench --compare "$results/smoke_a.result.json" "$results/smoke_a.result.json" > /dev/null
bench --compare "$results/smoke_a.result.json" "$results/smoke_b.result.json" || true
echo "benchmark self-test passed"
