#!/bin/sh
# Regenerates every exhibit recorded in EXPERIMENTS.md and the final test
# and benchmark logs. Expect ~30-45 minutes on one core at the default
# (small) simulation scale.
set -eu
cd "$(dirname "$0")/.."
mkdir -p results

go build ./...
go vet ./...

bin=$(mktemp -d)/rfcpaper
go build -o "$bin" ./cmd/rfcpaper

"$bin" -exhibit fig5 -quiet >results/analytic.txt
"$bin" -exhibit fig6 -quiet >>results/analytic.txt
"$bin" -exhibit fig7 -quiet >>results/analytic.txt
"$bin" -exhibit costs -quiet >>results/analytic.txt
"$bin" -exhibit thm42 -trials 200 -quiet >results/thm42.txt
"$bin" -exhibit table3 -quiet >results/table3.txt
"$bin" -exhibit fig11 -quiet >results/fig11.txt
"$bin" -exhibit fig8 -scale small -quiet >results/fig8_small.txt
"$bin" -exhibit fig8 -scale small -reps 2 -cycles 5000 -loads 0.2,0.6,1.0 \
	-patterns fixed-random -infsink -quiet >results/fig8_small_infsink.txt
"$bin" -exhibit fig9 -scale small -reps 1 -cycles 4000 \
	-loads 0.1,0.3,0.5,0.7,0.9,1.0 -quiet >results/fig9_small.txt
"$bin" -exhibit fig10 -scale small -reps 1 -cycles 4000 \
	-loads 0.1,0.3,0.5,0.7,0.9,1.0 -quiet >results/fig10_small.txt
"$bin" -exhibit fig12 -scale small -quiet >results/fig12_small.txt
"$bin" -exhibit structure -quiet >results/structure.txt
"$bin" -exhibit tables -quiet >results/tables.txt
"$bin" -exhibit adversarial -cycles 4000 -quiet >results/adversarial.txt
"$bin" -exhibit ablation -cycles 3000 -quiet >results/ablation.txt
"$bin" -exhibit jellyfish -cycles 4000 -quiet >results/jellyfish.txt
"$bin" -exhibit rrnfaults -cycles 4000 -quiet >results/rrnfaults.txt
# The flow-backend exhibits, seconds each at small scale.
for e in hotspot incast elephants storm flowscale; do
	"$bin" -exhibit "$e" -quiet >"results/$e.txt"
done
# Paper-scale spot check (radix 36, 11,664 terminals) — the slow one.
"$bin" -exhibit fig8 -scale paper -reps 1 -cycles 2000 -loads 0.3,0.6,0.9,1.0 \
	-patterns uniform,random-pairing -quiet >results/fig8_paper_spot.txt

go test ./... 2>&1 | tee test_output.txt
go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
