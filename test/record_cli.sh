#!/usr/bin/env bash
# `bench record` over a committed e2e results.json, in a scratch
# directory: it appends exactly one schema-2 snapshot carrying the
# results' own fingerprint, an unchanged second record is clean, and a
# refused file (failed operations, or no file at all) appends nothing
# and exits non-zero.
#   bash record_cli.sh <bench/main.exe> <results.json fixture>
set -euo pipefail
main=$(realpath "$1")
fixture=$(realpath "$2")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"
mkdir -p bench_results/e2e

fail() { echo "record_cli: $*" >&2; exit 1; }
snapshots() { grep -c '^{' BENCH_trajectory.json || true; }

if "$main" record > missing.log; then fail "record without results.json exited 0"; fi
test ! -e BENCH_trajectory.json || fail "record without results.json wrote a trajectory"

cp "$fixture" bench_results/e2e/results.json
"$main" record > first.log || fail "record of the fixture failed: $(cat first.log)"
[ "$(snapshots)" = 1 ] || fail "expected 1 snapshot, got $(snapshots)"
[ "$(grep -c '"schema":2' BENCH_trajectory.json)" = 1 ] || fail "snapshot is not schema 2"
fp=$(grep -o '"fingerprint":{[^}]*}' "$fixture")
grep -qF "$fp" BENCH_trajectory.json || fail "snapshot lacks the results' fingerprint $fp"

"$main" record > second.log || fail "second record failed"
[ "$(snapshots)" = 2 ] || fail "expected 2 snapshots, got $(snapshots)"
if grep -q '^regression:' second.log; then fail "unchanged record flagged: $(grep '^regression:' second.log)"; fi
grep -q '^no significant regressions in 28 of 28 rows' second.log \
  || fail "second record did not compare every row: $(cat second.log)"

sed 's/"failed":0/"failed":2/' "$fixture" > bench_results/e2e/results.json
if "$main" record > failed.log; then fail "record of a failed run exited 0"; fi
grep -q '"failed"' failed.log || fail "refusal does not name the key: $(cat failed.log)"
[ "$(snapshots)" = 2 ] || fail "a refused record appended a snapshot"
