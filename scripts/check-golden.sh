#!/usr/bin/env bash
# Round-count regression gate: re-runs the quick experiment sweep and fails
# if any golden CSV under expected/ (E1–E12 and E17) drifts.
#
# Since PR 4 the experiments harness generates every table through the
# `Solver` session API (plan-once / query-many), so this gate doubles as
# the proof that the session path stays byte-identical to the legacy
# free-function results the goldens were recorded from.
#
# Usage: scripts/check-golden.sh [csv-dir]
#   csv-dir  a directory already populated by `experiments --csv` (e.g. the
#            one CI just produced); omitted, only the experiments with a
#            golden under expected/ are run, into a tempdir.
#
# E13–E16 and E18 are timing-based (machine-dependent columns) and
# deliberately have no goldens. The traced-session JSONL golden
# (expected/trace.jsonl) is compared by the CI telemetry job. To accept an
# intentional round-count change, run scripts/refresh-golden.sh and commit
# the updated expected/ files.
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-}"
if [ -z "$dir" ]; then
    dir="$(mktemp -d)"
    ids=()
    for want in expected/*.csv; do
        ids+=("$(basename "$want" .csv)")
    done
    cargo run --release -q -p minex-bench --bin experiments -- "${ids[@]}" --csv "$dir" >/dev/null
fi

status=0
for want in expected/*.csv; do
    id="$(basename "$want")"
    if ! diff -u "$want" "$dir/$id"; then
        echo "::error::round counts drifted in ${id%.csv}" >&2
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo >&2
    echo "Experiment tables drifted from expected/." >&2
    echo "If the change is intentional: scripts/refresh-golden.sh, then commit expected/." >&2
    exit 1
fi
echo "Golden CSVs match ($(ls expected/*.csv | wc -l) tables)."
