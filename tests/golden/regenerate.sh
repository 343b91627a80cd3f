#!/bin/sh
# Regenerate the six golden files with the commands of README.md.
#
#   tests/golden/regenerate.sh [OUTDIR]
#   tests/golden/regenerate.sh --check
#
# OUTDIR defaults to this directory, which overwrites the committed files.
# --check regenerates into a temporary directory instead, compares each file
# with the committed one byte for byte, names each file that differs and
# exits 1 if any differs.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
files="run_original.json run_iw_augmented.json run_iw_nonsquare.json
run_log_sigma.json trace_log_sigma.csv sweep_iw_nonsquare.csv"

regenerate() {
  out=$1
  mkdir -p "$out"
  out=$(cd "$out" && pwd)
  (
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
  )
}

if [ "${1:-}" != "--check" ]; then
  regenerate "${1:-$here}"
  exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
regenerate "$tmp"
status=0
for f in $files; do
  if cmp -s "$tmp/$f" "$here/$f"; then
    echo "identical: $f"
  else
    echo "differs: $f"
    status=1
  fi
done
exit $status
