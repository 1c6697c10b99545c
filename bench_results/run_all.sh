#!/bin/bash
export TDE_SF=0.1 TDE_SF_LARGE=0.2 TDE_FLIGHTS_ROWS=1000000 TDE_RLE_SMALL=1000000 TDE_RLE_LARGE=16000000 TDE_REPS=3
cd "$(dirname "$0")/.." || exit 1
for b in fig4_parsing fig5_storage fig6_heap_sorting fig7_metadata fig8_string_width fig9_integer_width fig10_filtering dynamic_stability locale_parsing ablation_block_size ablation_rle_rewrite parallel_rollup; do
  echo "=== running $b ==="
  timeout 1800 cargo bench -p tde-bench --bench $b > bench_results/$b.txt 2>&1
  echo "=== $b done (exit $?) ==="
done
echo ALL_FIGURES_DONE
