#!/usr/bin/env bash
# Perf-floor regression gate: compares the hot-path rows of a `--perf-json`
# summary (out/BENCH_scale.json in the nightly scale job) against the
# committed floors in expected/perf-floor.json.
#
# The floors lock the raw-speed pass (CSR layout, SoA message plane,
# active-set round loop, warm engine): E13's engine rounds/sec per family
# and E15's million-node CSR iteration speedup must not silently regress.
# Neither experiment runs a `Solver` session. The summary holds each
# table's rows under its id, keyed by column header (`krounds/s` is
# `krounds_s`, `iter x` is `iter_x`; see `Table::to_json`). Ratio
# floors (`min_iter_speedup`) are the real acceptance bars and are
# machine-independent; absolute-throughput floors (`min_krounds_per_sec`)
# are set far below the recorded measurement (see the `measured` block in
# the floor file) so runner variance never trips them — only a real
# hot-path regression does.
#
# Skips (exit 0) when:
#   - MINEX_SKIP_TIMING_ASSERTS is set (the same escape hatch the
#     wall-clock test assertions honor), or
#   - the summary came from a debug build (`"debug": true`): debug builds
#     skip vectorization and add overflow checks on the hot loops, so
#     their wall-clock figures are meaningless.
#
# To accept an intentional throughput change, re-measure with
# `experiments -- --full E13 E15 --perf-json ...` on a release build and
# commit the updated expected/perf-floor.json.
#
# Usage: scripts/check-perf-floor.sh <bench-json>
set -euo pipefail
cd "$(dirname "$0")/.."

json="${1:-}"
if [ -z "$json" ] || [ ! -f "$json" ]; then
    echo "usage: scripts/check-perf-floor.sh <bench-json>" >&2
    exit 2
fi
floor="expected/perf-floor.json"

if [ -n "${MINEX_SKIP_TIMING_ASSERTS:-}" ]; then
    echo "MINEX_SKIP_TIMING_ASSERTS set — perf floor skipped."
    exit 0
fi
if [ "$(jq -r '.debug' "$json")" = "true" ]; then
    echo "debug-build summary — perf floor skipped (build with --release)."
    exit 0
fi

# One jq pass emits a line per violation; a floor row with no matching
# bench row, or whose figure is not a number, is itself a failure (a
# renamed family or column must not silently retire its floor).
failures="$(jq -rn --slurpfile floor "$floor" --slurpfile bench "$json" '
  (
    $floor[0].engine_scaling[] as $f
    | [ $bench[0]["E13"][]? | select(.family == $f.family) ] as $rows
    | if ($rows | length) == 0 then
        "missing E13 row: \($f.family)"
      elif ($rows[0].krounds_s | type) != "number"
           or $rows[0].krounds_s < $f.min_krounds_per_sec then
        "E13 \($f.family): " +
        "\($rows[0].krounds_s) krounds/s under floor \($f.min_krounds_per_sec)"
      else empty end
  ),
  (
    $floor[0].scale[] as $f
    | [ $bench[0]["E15"][]? | select(.family == $f.family) ] as $rows
    | if ($rows | length) == 0 then
        "missing E15 row: \($f.family)"
      else
        ( if $f.min_iter_speedup != null
             and (($rows[0].iter_x | type) != "number"
                  or $rows[0].iter_x < $f.min_iter_speedup) then
            "E15 \($f.family): iter x \($rows[0].iter_x) " +
            "under floor \($f.min_iter_speedup)"
          else empty end ),
        ( if $f.min_krounds_per_sec != null
             and (($rows[0].krounds_s | type) != "number"
                  or $rows[0].krounds_s < $f.min_krounds_per_sec) then
            "E15 \($f.family): \($rows[0].krounds_s) krounds/s " +
            "under floor \($f.min_krounds_per_sec)"
          else empty end )
      end
  )
')"

if [ -n "$failures" ]; then
    while IFS= read -r line; do
        echo "::error::perf floor: $line" >&2
    done <<<"$failures"
    echo >&2
    echo "Hot-path throughput fell below expected/perf-floor.json." >&2
    echo "If intentional: re-measure (--full E13 E15 --perf-json) on a release" >&2
    echo "build and commit the updated floor file." >&2
    exit 1
fi

checked="$(jq '[.engine_scaling[] | 1] + [.scale[] | [.min_iter_speedup, .min_krounds_per_sec] | map(select(. != null)) | length] | add' "$floor")"
echo "Perf floors hold ($checked metrics checked against $json)."
