#!/usr/bin/env bash
# Full experiment at the shipped defaults: synthesize the corpus, train the
# gradient-constrained autoencoder, score and bin the unlabeled pool, pretrain
# backbones (pseudo-label, instance-discrimination, and frozen random-init),
# probe every task, run the scorer ablation, and emit the report.
#
# Usage: scripts/run_experiment.sh RUN_DIR [CONFIG.ini]
set -euo pipefail

RUN_DIR="${1:?usage: run_experiment.sh RUN_DIR [CONFIG.ini]}"
CONFIG="${2:-}"

# Run this checkout's own code, installed or not.
SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
run() {
  echo "+ sevcon $*"
  PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}" python3 -m sevcon.cli --run-dir "$RUN_DIR" "$@"
}

if [[ -n "$CONFIG" ]]; then
  run --config "$CONFIG" gen-data
else
  run gen-data
fi

# The bin counts come from the run's stored config: [labeling] n_bins for the
# ablation, and report_bins for the backbones that the report tabulates.
BIN_COUNTS="$(PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}" python3 -c '
import sys
from sevcon.config import load_config
lab = load_config(sys.argv[1]).labeling
print(lab.n_bins, *lab.report_bin_list())' "$RUN_DIR/config.ini")"
read -r N_BINS REPORT_BINS <<< "$BIN_COUNTS"

run train-gradcon
for scorer in severity msp odin mahalanobis; do
  run score --scorer "$scorer"
done

TAGS=()
for bins in $REPORT_BINS; do
  run make-labels --bins "$bins"
  run pretrain --mode severity --bins "$bins"
  TAGS+=("severity_b$bins")
done
run pretrain --mode simclr
run pretrain --mode random

for tag in "${TAGS[@]}" simclr random; do
  for task in bio_a bio_b bio_c bio_d bio_e multilabel; do
    run probe --task "$task" --tag "$tag"
  done
  run evaluate --tag "$tag"
done

run ablate --bins "$N_BINS"
run report

echo "done; see $RUN_DIR/report/"
