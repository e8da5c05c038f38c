#!/usr/bin/env bash
# Regenerates every figure and ablation of EXPERIMENTS.md into results/
# (or results_dir); --check instead compares them, in memory, with the
# committed results/ both ways and exits non-zero on any difference.
# The experiment list is the registry behind `ecg-bench run --all`.
#
# Usage: ./run_all_experiments.sh [results_dir]
#        ./run_all_experiments.sh --check
set -euo pipefail
case "${1:-}" in --check) set -- --check ;; "") ;; *) set -- --out "$1" ;; esac
exec cargo run --release -p ecg-bench --bin ecg-bench -- run --all "$@"
