#!/usr/bin/env bash
# Build the repair-loop benchmark from source and run it.
#
#   bash perfbench/run.sh --workload gp-small --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --smoke
#
# Run from anywhere; it works in the checkout that holds this script. The
# build goes to _build/ with dune's shared cache off, so nothing is written
# outside the checkout. Build output goes to stderr; stdout carries the
# report and, last, the one-line JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
