#!/usr/bin/env bash
# Smoke test of the benchmark: one job per workload through the end-to-end
# and the per-layer modes. Fails unless every metric BENCHMARK.json names
# prints with its unit, the outside checks pass, and a perturbed job
# fingerprint is rejected. Takes about a minute.
#
#   bash perfbench/smoke.sh
set -euo pipefail
exec bash "$(dirname "$0")/run.sh" --smoke
