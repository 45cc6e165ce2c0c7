#!/usr/bin/env bash
# Regenerate the experiment record: run the nine act-bench experiment
# binaries (the paper's tables and figures, then the design ablation) and
# write their output as `== <binary> ==` blocks. The campaign footer lines
# (`campaign <name>: N jobs on W workers | wall ...`) carry wall-clock
# times, so they are dropped: two runs of one build write the same file.
#
# Usage: ./experiments.sh [OUTPUT]    (default: experiments_output.txt)
set -euo pipefail

out=${1:-experiments_output.txt}
cargo build --release --quiet -p act-bench --bins
for bin in table4 fig7a fig7b table5 table6 fig8_overhead fig9_granularity nn_design ablation; do
    echo "== $bin =="
    cargo run --release --quiet -p act-bench --bin "$bin" | grep -Ev '^campaign .*: [0-9]+ jobs on '
done > "$out"
