#!/bin/sh
# Regenerate the six golden files with the commands of README.md.
#
#   tests/golden/regenerate.sh [OUTDIR]
#
# OUTDIR defaults to this directory, which overwrites the committed files.
# Write into another directory and compare with `cmp` to check that a change
# keeps every output byte.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
out=${1:-$here}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export PYTHONPATH="$here/../../src${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS=1
cd "$here"
for m in original iw_augmented iw_nonsquare; do
  python3 -m blbayes.cli run --config "config_$m.json" --out "$out/run_$m.json"
done
python3 -m blbayes.cli run --config config_log_sigma.json \
  --trace "$out/trace_log_sigma.csv" --out "$out/run_log_sigma.json"
python3 -m blbayes.cli sweep --config config_iw_nonsquare.json \
  --grid grid_2x2.json --workers 1 --out "$out/sweep_iw_nonsquare.csv"
