#!/usr/bin/env bash
# Build the benchmark and the daemon from source, then run one workload:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository.  Build output goes to stderr, so
# the last line of stdout is the benchmark's JSON result.  Dune's shared
# cache is turned off so that the build writes only under _build/.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/bench.exe ./bin/dls_daemond.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
