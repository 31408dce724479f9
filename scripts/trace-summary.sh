#!/usr/bin/env bash
# Pretty-prints a JSONL session trace (`experiments --trace <file>`):
# session counters, the per-query table, per-phase attribution, and the
# hottest links — the human view of the schema that scripts/check-trace.sh
# validates.
#
# Usage: scripts/trace-summary.sh <trace.jsonl>
set -euo pipefail

trace="${1:?usage: scripts/trace-summary.sh <trace.jsonl>}"
command -v jq >/dev/null || { echo "jq is required" >&2; exit 2; }

# Tab-aligned when util-linux `column` is present, raw tabs otherwise.
align() { if command -v column >/dev/null; then column -t -s $'\t'; else cat; fi; }

jq -r -s '
  def row: map(tostring) | join("\t");

  ([.[] | select(.type == "counters")][0]) as $c
  | ([.[] | select(.type == "summary")][0]) as $s
  | [
      "== session ==",
      ([ "queries", $c.queries, "memo hits", $c.memo_hits,
         "misses", $c.memo_misses, "plans built", $c.plans_built,
         "repairs", $c.plan_repairs ] | row),
      ([ "messages", $s.messages, "bits", $s.bits,
         "max edge msgs", $s.max_edge_messages,
         "rounds started", $s.rounds_started ] | row),
      "",
      "== queries ==",
      (["label", "tier", "cache", "rounds", "charged", "messages", "bits"] | row),
      (.[] | select(.type == "query")
        | [ .label, (.tier // "-"), (if .cache_hit then "hit" else "miss" end),
            .simulated_rounds, .charged_rounds, .messages, .bits ] | row),
      "",
      "== phases ==",
      (["phase", "rounds", "x", "wire msgs", "wire bits"] | row),
      (.[] | select(.type == "phase")
        | [ .label, .rounds, .repeats, .wire_messages, .wire_bits ] | row),
      "",
      "== hottest links ==",
      (["rank", "edge", "messages", "bits"] | row),
      (.[] | select(.type == "hot")
        | [ .rank, .edge, .messages, .bits ] | row),
      (if ([.[] | select(.type == "reject")] | length) > 0 then
        "", "== validator rejections ==",
        (.[] | select(.type == "reject") | .message)
      else empty end)
    ]
  | .[]
' "$trace" | align
