#!/usr/bin/env bash
# Every workload, end to end and then traced, one fresh process per run.
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in family_oracle certificate_large nontrivial_user; do
  for trace in 0 1; do
    echo "== $workload --trace $trace"
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" --seconds "${2:-45}" --trace "$trace"
  done
done
