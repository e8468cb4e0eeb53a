#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload smr_mem --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
# The shared dune cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
