#!/bin/sh
# Regenerates every paper table/figure; outputs land in results/.
set -x
cd "$(dirname "$0")"
mkdir -p bin results
go build -o bin/ ./cmd/...
./bin/gofi-overhead -trials 40 > results/fig3.txt 2>&1
./bin/gofi-overhead -batches -trials 40 > results/batchsweep.txt 2>&1
./bin/gofi-detect -scenes 20 -injections 3 > results/fig5.txt 2>&1
./bin/gofi-interpret > results/fig7.txt 2>&1
./bin/gofi-classify -trials 1000 > results/fig4.txt 2>&1
./bin/gofi-traintime -size 16 -epochs 4 -train-size 384 -eval-trials 8000 > results/table1.txt 2>&1
./bin/gofi-ibp -trials 600 > results/fig6.txt 2>&1
./bin/gofi-layers -trials 300 > results/layers.txt 2>&1
./bin/gofi-bits -trials 300 > results/bits.txt 2>&1
echo ALL-DONE
