#!/bin/sh
# Runs every workload untraced, one after another, from the repository
# root: `sh perfbench/run_all.sh [seed] [seconds]`. Each run prints its
# metrics by name with units and sample counts; the script stops with a
# non-zero exit at the first run whose output differs from the reference.
set -e
for w in ysb_batch ysb_service sliding_wire; do
    echo "== $w"
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed "${1:-1}" --seconds "${2:-30}" --trace 0
done
