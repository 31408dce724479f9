#!/usr/bin/env bash
# Regenerates the goldens under expected/: the round-count CSVs of E1–E12
# and E17 (quick sweep — the exact configuration CI's gate replays) and the
# traced-session JSONL (expected/trace.jsonl) the CI telemetry job compares
# against. E13–E16 and E18 are timing-based and have no goldens. Run this
# after an intentional round-count or trace change and commit the result.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -q -p minex-bench --bin experiments -- \
    E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E17 \
    --csv expected --trace expected/trace.jsonl >/dev/null
echo "Refreshed $(ls expected/*.csv | wc -l) golden CSVs and expected/trace.jsonl."
git --no-pager diff --stat -- expected || true
