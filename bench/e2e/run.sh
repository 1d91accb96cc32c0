#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in, then runs it:
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
# Every argument goes to `e2e.exe run`; build output goes to stderr, so
# the last line of stdout is the JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: start it from the root of a checkout of the repository" >&2
  exit 2
fi
exec dune exec --root . --display quiet -- ./bench/e2e/e2e.exe run "$@"
