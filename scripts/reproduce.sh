#!/usr/bin/env bash
# Reproduces every paper table/figure and all extension experiments.
# Usage: scripts/reproduce.sh [output-dir]   (default: ./out)
#
# pipefail matters: every bench/example is piped through tee, and a
# plain `set -e` would otherwise keep going on a failing binary as long
# as tee succeeded.
set -euo pipefail

OUT_DIR="${1:-out}"
mkdir -p "$OUT_DIR"
OUT_DIR=$(cd "$OUT_DIR" && pwd)
REPO_DIR=$(pwd)

cmake -B build -G Ninja
cmake --build build

# The CI perf gate depends on these binaries; fail here with a clear
# message rather than letting the bench glob silently skip a renamed
# target.
for gate in bench_dse_prefix_cache bench_bitsliced_sim; do
  if [ ! -x "build/bench/$gate" ]; then
    echo "error: perf-gate bench build/bench/$gate is missing" >&2
    exit 1
  fi
done

echo "== tests =="
ctest --test-dir build --output-on-failure 2>&1 | tee "$OUT_DIR/tests.txt"

echo "== benches =="
# Run from OUT_DIR so the default BENCH_*.json reports land there and
# never clobber the committed references the regression gate reads.
for bench in build/bench/*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  echo "-- $name"
  (cd "$OUT_DIR" && "$REPO_DIR/$bench" | tee "$name.txt")
done

echo "== bench regression gate =="
python3 scripts/check_bench_regression.py \
  BENCH_dse_prefix_cache.json "$OUT_DIR/BENCH_dse_prefix_cache.json" \
  BENCH_bitsliced_sim.json "$OUT_DIR/BENCH_bitsliced_sim.json" |
  tee "$OUT_DIR/bench_regression.txt"

echo "== service smoke =="
python3 scripts/service_smoke.py --daemon build/tools/sealpaad \
  --cli build/tools/sealpaa_cli 2>&1 | tee "$OUT_DIR/service_smoke.txt"

echo "== figure CSV series =="
build/bench/bench_figure5_sweeps --csv="$OUT_DIR" > /dev/null

echo "== examples =="
for example in build/examples/example_*; do
  [ -x "$example" ] || continue
  name=$(basename "$example")
  echo "-- $name"
  "$example" --out-dir="$OUT_DIR" | tee "$OUT_DIR/$name.txt"
done

echo "All outputs written to $OUT_DIR"
