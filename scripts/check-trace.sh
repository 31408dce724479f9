#!/usr/bin/env bash
# Telemetry trace gate: validates a JSONL session trace emitted by
# `experiments --trace <file>` against the documented schema (README
# "Observability", `SessionTrace::to_jsonl`).
#
# Checks, in order:
#   1. every line parses as a JSON object with a known "type";
#   2. the record shape: exactly one counters line (first) and one summary
#      line (last), and the per-type required fields;
#   3. conservation: per-edge message/bit totals equal the summary totals
#      (the same reconciliation the congest proptest asserts in-process).
#
# Usage: scripts/check-trace.sh <trace.jsonl>
set -euo pipefail

trace="${1:?usage: scripts/check-trace.sh <trace.jsonl>}"
command -v jq >/dev/null || { echo "jq is required" >&2; exit 2; }
[ -s "$trace" ] || { echo "::error::$trace is missing or empty" >&2; exit 1; }

fail() {
    echo "::error::$1 in $trace" >&2
    exit 1
}

jq -e -s '
  length > 0
  and all(.[]; type == "object"
    and (.type | IN("counters","query","phase","edge","round","hot","reject","summary")))
' "$trace" >/dev/null || fail "malformed line or unknown record type"

jq -e -s '
  ([.[] | select(.type == "counters")] | length == 1)
  and ([.[] | select(.type == "summary")] | length == 1)
  and (first.type == "counters")
  and (last.type == "summary")
  and all(.[] | select(.type == "counters");
    has("queries") and has("memo_hits") and has("memo_misses")
    and has("plans_built") and has("plan_repairs"))
  and all(.[] | select(.type == "query");
    has("label") and has("tier") and has("cache_hit")
    and has("simulated_rounds") and has("charged_rounds")
    and has("messages") and has("bits") and has("repair"))
  and all(.[] | select(.type == "phase");
    has("phase") and has("subphase") and has("attempt") and has("label")
    and has("rounds") and has("messages") and has("bits")
    and has("wire_messages") and has("wire_bits") and has("repeats"))
  and all(.[] | select(.type == "edge" or .type == "round" or .type == "hot");
    has("messages") and has("bits"))
  and all(.[] | select(.type == "summary");
    has("messages") and has("bits") and has("max_message_bits")
    and has("max_edge_messages") and has("delivered") and has("rounds_started"))
' "$trace" >/dev/null || fail "schema violation"

jq -e -s '
  ([.[] | select(.type == "summary")][0]) as $sum
  | (([.[] | select(.type == "edge") | .messages] | add // 0) == $sum.messages)
    and (([.[] | select(.type == "edge") | .bits] | add // 0) == $sum.bits)
    and (([.[] | select(.type == "edge") | .messages] | max // 0) == $sum.max_edge_messages)
' "$trace" >/dev/null || fail "per-edge loads do not reconcile with the summary"

echo "trace OK: $(wc -l < "$trace") lines, schema and conservation checks pass"
