#!/usr/bin/env bash
# Miniature end-to-end run (~10 s): tiny corpus, single epochs. Useful as a
# smoke test of the whole pipeline before committing to the full experiment.
#
# Usage: scripts/quick_demo.sh RUN_DIR
set -euo pipefail

RUN_DIR="${1:?usage: quick_demo.sh RUN_DIR}"
CONFIG="$(mktemp)"
trap 'rm -f "$CONFIG"' EXIT

cat > "$CONFIG" <<'EOF'
[experiment]
seed = 5

[data]
n_healthy = 24
n_unlabeled = 40
n_labeled_train = 20
n_test_per_biomarker = 8
n_multilabel_test = 16

[gradcon]
epochs = 1
heldout_count = 4

[labeling]
n_bins = 8
report_bins = 4,8,10
extreme_report_k = 2

[contrastive]
epochs = 1

[probe]
epochs = 5

[baselines]
classifier_epochs = 1
EOF

# Run this checkout's own code, installed or not.
SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
run() {
  echo "+ sevcon $*"
  PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}" python3 -m sevcon.cli --run-dir "$RUN_DIR" "$@"
}

run --config "$CONFIG" gen-data
run train-gradcon
for scorer in severity msp odin mahalanobis; do
  run score --scorer "$scorer"
done
for bins in 4 8 10; do
  run make-labels --bins "$bins"
  run pretrain --mode severity --bins "$bins"
done
run pretrain --mode simclr
run pretrain --mode random
for tag in severity_b4 severity_b8 severity_b10 simclr random; do
  run probe --task multilabel --tag "$tag"
  run evaluate --tag "$tag"
done
run ablate --bins 8
run report

echo "done; see $RUN_DIR/report/"
