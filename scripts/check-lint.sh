#!/usr/bin/env bash
# Determinism-contract static-analysis gate: runs minex-lint over the
# workspace tree. Fails on any finding — including unused or malformed
# waivers (W001/W002), so waivers can never go stale.
#
# Usage: scripts/check-lint.sh [--json]
#   --json  machine-readable output (same schema as `minex-lint check --json`)
#
# Rules (see README "Static analysis" and `cargo run -p minex-lint -- rules`):
#   D001 unordered HashMap/HashSet iteration in result-affecting crates
#   D002 wall-clock reads outside bench/serve
#   D003 thread-environment probes outside bench/serve
#   D004 floating point in the congest message plane
#   D005 unseeded randomness
#   D006 partial_cmp sorts / comparator-free .sort()
#   D007 BinaryHeap in result-affecting crates outside graphs::reference
#
# To waive a justified site: `// minex-lint: allow(Dnnn) <reason>` on the
# line of (or the line above) the flagged code.
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run --release -q -p minex-lint -- check "$@"
