#!/usr/bin/env bash
# Serving gate: drives a RUNNING `minex-serve` daemon through wire schema
# v2 and validates the response shapes and the stable error-code mapping
# with jq (the serving counterpart of scripts/check-trace.sh).
#
# Checks, in order:
#   1. health shape: status "ok", wire_version 2;
#   2. session lifecycle: create (hex-16 id, created=true), idempotent
#      re-create (created=false — plan reuse), delete (then 404);
#   3. report shape: mst on a weighted triangle returns the exact MST
#      weight with simulation statistics whose runs carry structured
#      `tags` and no display `label`; a min_cut body without
#      `two_respecting` still answers; a batch keeps per-query ok/error
#      envelopes;
#   4. error-code mapping: DISCONNECTED/422, BAD_QUERY/400,
#      BAD_REQUEST/400 (a zero bandwidth or max_rounds upload among
#      them), NOT_FOUND/404 — codes and HTTP statuses both — and the
#      `null` sentinels: an exact SSSP on the disconnected session
#      answers `null` for each unreached distance and parent;
#   5. apply: on a Voronoi session with a warmed plan, a batch that moves
#      the cells drops the plan (partition_changed, no plan_repaired, no
#      full_rebuild), and the next partwise_min answers the minima of the
#      new cells; on a default session (singletons, auto-capped) and on a
#      whole-tree session, whose builders are not part-local, an apply
#      drops the warmed plan too (no plan_repaired, an all-zero plan) and
#      the next partwise_min still answers; on a Steiner singleton
#      session it repairs the plan, rebuilding only the parts the batch
#      reached;
#   6. transport latency: the median of 20 keep-alive health requests on
#      one connection stays under 20 ms. A response split over small
#      writes without TCP_NODELAY stalls ~40 ms on the client's delayed
#      ACK; a served health check takes well under 1 ms.
#
# Usage: scripts/check-serve.sh <host:port>
set -euo pipefail

addr="${1:?usage: scripts/check-serve.sh <host:port>}"
base="http://$addr"
command -v jq >/dev/null || { echo "jq is required" >&2; exit 2; }
command -v curl >/dev/null || { echo "curl is required" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() {
    echo "::error::$1" >&2
    [ -f "$tmp/body" ] && cat "$tmp/body" >&2
    exit 1
}

# req <expected-status> <method> <path> [json-body] — body lands in $tmp/body.
req() {
    local expect="$1" method="$2" path="$3" body="${4:-}"
    local args=(-s -o "$tmp/body" -w '%{http_code}' -X "$method")
    [ -n "$body" ] && args+=(--data "$body")
    local status
    status="$(curl "${args[@]}" "$base$path")"
    [ "$status" = "$expect" ] \
        || fail "$method $path: expected HTTP $expect, got $status"
}

# 1. Health shape.
req 200 GET /v1/health
jq -e '.status == "ok" and .wire_version == 2 and (.sessions | type == "number")' \
    "$tmp/body" >/dev/null || fail "health shape"

# 2. Session lifecycle on a weighted triangle (MST = 5 + 7 = 12).
triangle='{"graph":{"n":3,"edges":[[0,1,5],[1,2,7],[0,2,20]]}}'
req 200 POST /v1/sessions "$triangle"
jq -e '(.session | test("^[0-9a-f]{16}$")) and .created == true
       and .nodes == 3 and .edges == 3' "$tmp/body" >/dev/null \
    || fail "session creation shape"
session="$(jq -r .session "$tmp/body")"

req 200 POST /v1/sessions "$triangle"
jq -e --arg s "$session" '.session == $s and .created == false' \
    "$tmp/body" >/dev/null || fail "re-upload must land in the existing session"

# 3. Report shape: the exact MST with simulation statistics.
req 200 POST "/v1/sessions/$session/query" '{"query":"mst"}'
jq -e '.value.total_weight == 12 and (.value.edges | length == 2)
       and .stats.simulated_rounds >= 1 and (.stats.runs | type == "array")
       and (.stats.runs[0] | has("tags") and (has("label") | not))' \
    "$tmp/body" >/dev/null || fail "mst report shape"

# The body clients sent before wire v2: no `two_respecting`, which
# still means true.
req 200 POST "/v1/sessions/$session/query" '{"query":"min_cut","trees":1}'
jq -e '.value.trees == 1 and .value.approx_value >= .value.exact_value' \
    "$tmp/body" >/dev/null || fail "min_cut report shape"

# ... and batch envelopes: a bad query mid-batch stays an error entry.
req 200 POST "/v1/sessions/$session/batch" \
    '{"queries":[{"query":"mst"},{"query":"frobnicate"},{"query":"components"}]}'
jq -e '(.results | length == 3)
       and .results[0].ok.value.total_weight == 12
       and .results[1].error.code == "BAD_REQUEST"
       and (.results[2].ok.value.forest_edges | length == 2)' \
    "$tmp/body" >/dev/null || fail "batch envelope shape"

# 4. Error-code mapping.
req 200 POST /v1/sessions '{"graph":{"n":4,"edges":[[0,1,1],[2,3,1]]}}'
split="$(jq -r .session "$tmp/body")"
req 422 POST "/v1/sessions/$split/query" '{"query":"mst"}'
jq -e '.code == "DISCONNECTED"' "$tmp/body" >/dev/null \
    || fail "disconnected mst must map to DISCONNECTED"

# Exact SSSP still answers on the split graph; the far component's
# distances (u64::MAX in process) and parents (None) travel as null.
req 200 POST "/v1/sessions/$split/query" \
    '{"query":"sssp","source":0,"tier":{"tier":"exact"}}'
jq -e '.value.dist == [0,1,null,null]
       and .value.detail.parent == [null,0,null,null]' \
    "$tmp/body" >/dev/null || fail "unreached nodes must answer null"

req 400 POST "/v1/sessions/$session/query" \
    '{"query":"sssp","source":999,"tier":{"tier":"exact"}}'
jq -e '.code == "BAD_QUERY"' "$tmp/body" >/dev/null \
    || fail "out-of-range source must map to BAD_QUERY"

req 400 POST "/v1/sessions/$session/query" '{"query":"frobnicate"}'
jq -e '.code == "BAD_REQUEST"' "$tmp/body" >/dev/null \
    || fail "unknown query must map to BAD_REQUEST"

req 400 POST /v1/sessions 'this is not json'
jq -e '.code == "BAD_REQUEST"' "$tmp/body" >/dev/null \
    || fail "malformed body must map to BAD_REQUEST"

# A zero bandwidth or round limit would fail every simulated query.
for field in bandwidth max_rounds; do
    req 400 POST /v1/sessions \
        "{\"graph\":{\"n\":3,\"edges\":[[0,1,5],[1,2,7]]},\"$field\":0}"
    jq -e --arg m "$field must be a positive integer" \
        '.code == "BAD_REQUEST" and .message == $m' "$tmp/body" >/dev/null \
        || fail "$field 0 must map to BAD_REQUEST"
done

req 404 POST "/v1/sessions/0123456789abcdef/query" '{"query":"mst"}'
jq -e '.code == "NOT_FOUND"' "$tmp/body" >/dev/null \
    || fail "unknown session must map to NOT_FOUND"

req 404 GET "/v1/sessions/$session/trace"
jq -e '.code == "NOT_FOUND" and (.message | test("tracing"))' \
    "$tmp/body" >/dev/null || fail "trace on an untraced session must say so"

req 404 GET /v1/nope
jq -e '.code == "NOT_FOUND"' "$tmp/body" >/dev/null \
    || fail "unknown route must map to NOT_FOUND"

# Lifecycle tail: delete, then the id is gone.
req 200 DELETE "/v1/sessions/$split"
jq -e '.deleted == true' "$tmp/body" >/dev/null || fail "delete shape"
req 404 DELETE "/v1/sessions/$split"

# 5. apply. voronoi(2,0) splits the path 0-7 into the cells 0-3 and 4-7;
# the chord {0,7} moves node 7 into the first cell.
path='{"n":8,"edges":[[0,1,1],[1,2,1],[2,3,1],[3,4,1],[4,5,1],[5,6,1],[6,7,1]]}'
chord='{"query":"apply","mutations":[{"op":"insert","u":0,"v":7,"weight":1}]}'
minima='{"query":"partwise_min","values":[80,70,60,50,40,30,20,10],"value_bits":8}'
req 200 POST /v1/sessions \
    "{\"graph\":$path,\"parts\":{\"strategy\":\"voronoi\",\"parts\":2,\"seed\":0},\"builder\":\"steiner\"}"
cells="$(jq -r .session "$tmp/body")"
req 200 POST "/v1/sessions/$cells/query" "$minima"
jq -e '.value.minima == [50,10]' "$tmp/body" >/dev/null \
    || fail "partwise_min on the cells 0-3 and 4-7"
req 200 POST "/v1/sessions/$cells/query" "$chord"
jq -e '.partition_changed == true and .plan_repaired == false
       and .plan.full_rebuild == false' "$tmp/body" >/dev/null \
    || fail "an apply that moves the cells must drop the plan, not rebuild it"
req 200 POST "/v1/sessions/$cells/query" "$minima"
jq -e '.value.minima == [10,20]' "$tmp/body" >/dev/null \
    || fail "partwise_min after the apply must read the moved cells"
req 200 DELETE "/v1/sessions/$cells"

for builder in default whole-tree; do
    upload="{\"graph\":$path,\"builder\":\"$builder\"}"
    [ "$builder" = default ] && upload="{\"graph\":$path}"
    req 200 POST /v1/sessions "$upload"
    singletons="$(jq -r .session "$tmp/body")"
    req 200 POST "/v1/sessions/$singletons/query" "$minima"
    req 200 POST "/v1/sessions/$singletons/query" "$chord"
    jq -e '.partition_changed == false and .plan_repaired == false
           and (.plan | to_entries | all(.value == 0 or .value == false))' \
        "$tmp/body" >/dev/null \
        || fail "an apply on a $builder session must drop the plan, not rebuild it"
    req 200 POST "/v1/sessions/$singletons/query" "$minima"
    jq -e '.value.minima == [80,70,60,50,40,30,20,10]' "$tmp/body" >/dev/null \
        || fail "partwise_min after the $builder apply must rebuild the dropped plan"
    req 200 DELETE "/v1/sessions/$singletons"
done

req 200 POST /v1/sessions "{\"graph\":$path,\"builder\":\"steiner\"}"
steiner="$(jq -r .session "$tmp/body")"
req 200 POST "/v1/sessions/$steiner/query" "$minima"
req 200 POST "/v1/sessions/$steiner/query" "$chord"
# The chord moves the tree parents of 5, 6 and 7; with its endpoints 0
# and 7, four of the eight singletons are dirty and four keep their edges.
jq -e '.partition_changed == false and .plan_repaired == true
       and .plan.full_rebuild == false
       and .plan.parts_rebuilt == 4 and .plan.parts_reused == 4' \
    "$tmp/body" >/dev/null || fail "an apply on Steiner singletons must repair the plan"
req 200 DELETE "/v1/sessions/$steiner"

# 6. Transport latency: one curl invocation, so every request after the
# first rides the same keep-alive connection.
rm -f "$tmp/body"
health=()
for _ in $(seq 1 20); do health+=(-o /dev/null "$base/v1/health"); done
curl -sf -w '%{time_total}\n' "${health[@]}" > "$tmp/times" \
    || fail "keep-alive health requests failed"
median="$(sort -n "$tmp/times" | awk '{ t[NR] = $1 } END { print (t[10] + t[11]) / 2 }')"
awk -v m="$median" 'BEGIN { exit !(m < 0.020) }' \
    || fail "keep-alive health median ${median}s is not under 20 ms (transport stall?)"

echo "serve OK: health, lifecycle, report shapes, error-code mapping, apply, and transport latency (median ${median}s) pass against $addr"
