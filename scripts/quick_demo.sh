#!/usr/bin/env bash
# Miniature end-to-end run (~20 s): scripts/run_experiment.sh, every stage of
# it, on a tiny corpus with single epochs. Useful as a smoke test of the whole
# pipeline before committing to the full experiment.
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

"$(dirname "${BASH_SOURCE[0]}")/run_experiment.sh" "$RUN_DIR" "$CONFIG"
