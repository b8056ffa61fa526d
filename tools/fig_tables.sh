#!/usr/bin/env bash
# Prints the paper-figure and extension tables at a small, fixed size so
# two builds can be compared byte for byte:
#
#   tools/fig_tables.sh BUILD_DIR OUT_DIR
#
# Runs fig22-fig28, fig29-fig32, fig34, fig35, ablation_buffer,
# ablation_index and ext_range_validity from BUILD_DIR/bench at
# LBSQ_QUERIES=200 LBSQ_SCALE=0.1, writes each table to OUT_DIR/<name>.txt
# and prints one "sha256  name" line per binary. The tables hold NA/PA
# counts, region sizes and influence counts, no timings, so a change that
# keeps the I/O model and the regions keeps every line: compare two builds
# with `diff -r OUT_A OUT_B`. Takes about 10 s on a shared 4-vCPU box.
# Exits nonzero if a binary is missing or fails.

set -u
if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
BUILD="$1"
OUT="$2"
mkdir -p "$OUT" || exit 1

BINARIES=(
  fig22_nn_area_uniform fig23_nn_area_real fig24_nn_edges
  fig25_nn_sinf_uniform fig26_nn_sinf_real fig27_nn_cost_uniform
  fig28_nn_cost_real fig29_wq_area_uniform fig30_wq_area_real
  fig31_wq_sinf_uniform fig32_wq_sinf_real fig34_wq_cost_uniform
  fig35_wq_cost_real ablation_buffer ablation_index ext_range_validity
)

status=0
for name in "${BINARIES[@]}"; do
  bin="$BUILD/bench/$name"
  if [ ! -x "$bin" ]; then
    echo "missing $bin" >&2
    status=1
    continue
  fi
  if ! LBSQ_QUERIES=200 LBSQ_SCALE=0.1 "$bin" >"$OUT/$name.txt"; then
    echo "$name failed" >&2
    status=1
    continue
  fi
  (cd "$OUT" && sha256sum "$name.txt")
done
exit "$status"
