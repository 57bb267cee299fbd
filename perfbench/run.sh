#!/usr/bin/env bash
# Build the benchmark from source and run it.  Run from the repository
# root; arguments go to the benchmark unchanged:
#   bash perfbench/run.sh --workload dc-eager --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep dune's shared cache out of it: the build stays inside this tree.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
if [ -d .git ]; then
  PERFBENCH_REV=$(git rev-parse HEAD 2>/dev/null || echo unknown)
  export PERFBENCH_REV
fi
exec ./_build/default/perfbench/main.exe "$@"
