#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
set -euo pipefail
# keep every build artefact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/tqbench.exe 1>&2
exec ./_build/default/perfbench/tqbench.exe "$@"
