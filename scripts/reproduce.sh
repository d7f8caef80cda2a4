#!/usr/bin/env bash
# Desk-scale end-to-end run: synthesize a corpus, train both models,
# evaluate, and run all three graph perturbation protocols.
#
# Usage: scripts/reproduce.sh [OUT_DIR]
# Needs the package installed (pip install -e .); uses the kgchat CLI only.
set -euo pipefail

OUT="${1:-runs/repro}"
SEED=7

mkdir -p "$OUT"

echo "== synthesizing corpus =="
kgchat synth --out "$OUT/corpus" --seed "$SEED"

echo "== corpus statistics =="
kgchat stats --bundle "$OUT/corpus" --out "$OUT/stats"

echo "== training qadpt =="
kgchat train --bundle "$OUT/corpus" --out "$OUT/qadpt" \
    --model qadpt --hidden 64 --hops 6 --epochs 30 --patience 3 --seed 0

echo "== training seq2seq baseline =="
kgchat train --bundle "$OUT/corpus" --out "$OUT/seq2seq" \
    --model seq2seq --hidden 64 --epochs 30 --patience 3 --seed 0

for MODEL in qadpt seq2seq; do
    echo "== evaluating $MODEL =="
    kgchat eval --bundle "$OUT/corpus" --checkpoint "$OUT/$MODEL/model.ckpt" \
        --out "$OUT/$MODEL/eval" --split test
    for MODE in all last1 last2; do
        echo "== perturbing $MODEL ($MODE) =="
        kgchat perturb --bundle "$OUT/corpus" \
            --checkpoint "$OUT/$MODEL/model.ckpt" \
            --out "$OUT/$MODEL/perturb_$MODE" --mode "$MODE" --seed 13
    done
done

echo
echo "artifacts under $OUT/"
echo "  eval reports:   $OUT/{qadpt,seq2seq}/eval/report.json"
echo "  metric tables:  $OUT/{qadpt,seq2seq}/eval/metrics.csv"
echo "  perturbations:  $OUT/{qadpt,seq2seq}/perturb_{all,last1,last2}/perturb.json"
