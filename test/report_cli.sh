#!/usr/bin/env bash
# `decompose report` in a scratch directory, once for a decomposer with a
# Chrome timeline and once for a carver: every artifact of the run is
# written and non-empty, both exact-sum attribution checks print, and the
# Chrome file pairs every "B" event with an "E" event; the major-word
# count does not depend on the length of the -o path.
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

# The recorder's window counts the run, not the process's start-up data:
# the major words do not move with the length of the -o path.
major_words() {
  "$decompose" report thm2.2 grid --nodes 256 -o "$1" \
    | sed -n 's/^resource attribution check: .* minor words, \([0-9]*\) major words.*/\1/p'
}
short=$(major_words a)
long=$(major_words out_with_a_much_longer_directory_name_than_the_others)
[ -n "$short" ] || fail "no major-word count printed"
[ "$short" = "$long" ] \
  || fail "major words depend on the -o path: $short with -o a, $long with a longer one"
