#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#   bash psnbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout. The build stays inside the checkout
# (_build/); dune's shared cache is off so nothing is written outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet psnbench/main.exe >&2
exec ./_build/default/psnbench/main.exe "$@"
