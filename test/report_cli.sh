#!/usr/bin/env bash
# `decompose report` in a scratch directory, once for a decomposer with a
# Chrome timeline and once for a carver: every artifact of the run is
# written and non-empty, both exact-sum attribution checks print, and the
# Chrome file pairs every "B" event with an "E" event.
#   bash report_cli.sh <bin/decompose.exe>
set -euo pipefail
decompose=$(realpath "$1")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

fail() { echo "report_cli: $*" >&2; exit 1; }

run() {
  local log=$1; shift
  "$decompose" report "$@" -o out > "$log" || fail "report $* failed: $(cat "$log")"
  grep -q '^resource attribution check: .* fully attributed' "$log" \
    || fail "report $*: no resource attribution line: $(cat "$log")"
  grep -q '^attribution check: .* fully attributed' "$log" \
    || fail "report $*: no attribution line: $(cat "$log")"
}

artifacts() {
  local base=out/report_$1
  for f in "$base.md" "$base.json" "$base.jsonl" "${base}_metrics.csv" \
    "${base}_metrics.jsonl" "${base}_phases.csv" "$base.folded"; do
    test -s "$f" || fail "$f missing or empty"
  done
}

run decomposer.log thm2.3 grid --nodes 256 --chrome c.json
artifacts thm2.3_grid
test -s c.json || fail "c.json missing or empty"
begins=$(grep -o '"ph":"B"' c.json | wc -l)
ends=$(grep -o '"ph":"E"' c.json | wc -l)
[ "$begins" -gt 0 ] || fail "chrome timeline has no events"
[ "$begins" = "$ends" ] || fail "chrome timeline: $begins B events, $ends E events"

run carver.log thm2.2 grid
artifacts thm2.2_grid
