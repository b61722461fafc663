#!/usr/bin/env bash
# The whole pipeline through the CLI, from nothing to the outcome table.
# Runs in a scratch directory; every stage writes a manifest derived from
# its parsed arguments next to its artifacts (DIR/manifest.json for an
# output directory, F.manifest.json beside an output file F), so a run can
# be reproduced from the directory alone.
#
# BLAS runs on one thread, as in perfbench/run.py. At two threads OpenBLAS
# splits the model's products otherwise, and all 18 arrays of the trained
# checkpoint differ, by up to 2.6e-8. One thread is also faster at these
# shapes: `train` took 2.85-3.55 s against 3.28-4.26 s at two threads on a
# 2-vCPU guest. A bare `gradus train` still depends on the thread count.
set -euo pipefail
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
command -v gradus >/dev/null || gradus() { python3 -m gradus.cli "$@"; }

WS="$(mktemp -d)"
trap 'rm -rf "$WS"' EXIT
echo "workspace: $WS"

gradus gen-fixtures --out "$WS/corpus" --pieces 6 --seed 2026
gradus lmx encode   --corpus "$WS/corpus" --out-dir "$WS/enc"
gradus skyline      --corpus "$WS/corpus" --out "$WS/sky.jsonl"
gradus profile      --corpus "$WS/corpus" --out "$WS/prof.jsonl" \
                    --noise-scale 0.15 --seed 8

gradus build-seqs --mode conditioned --vocab "$WS/enc/vocab.txt" \
                  --tokens "$WS/sky.jsonl" --profiles "$WS/prof.jsonl" \
                  --out "$WS/seqs.npz"
gradus train --seqs "$WS/seqs.npz" --vocab "$WS/enc/vocab.txt" \
             --out-dir "$WS/ck" --steps 220 --d-model 48 --n-layers 1 \
             --n-heads 4 --d-ff 128 --lr 3e-3 --context 512 --seed 4
# the model overfits its tiny corpus, so sample hot and wide: even so most
# draws repeat an earlier draw of their piece (about 126 of 768 are distinct
# valid streams); a repeat keeps its row in variations.jsonl with same_as
# naming the draw it repeats, and gets no score, so it is graded and mined once
gradus sample --checkpoint "$WS/ck/checkpoint.npz" \
              --vocab "$WS/enc/vocab.txt" --skylines "$WS/sky.jsonl" \
              --profiles "$WS/prof.jsonl" --out-dir "$WS/samples" \
              --n 128 --max-new 160 --temperature 1.2 --seed 6

# grade the sampled variations, and the originals through the same model
gradus features --corpus "$WS/samples/scores" --out "$WS/varfeat.jsonl"
gradus fit-gnb  --features "$WS/varfeat.jsonl" --out-dir "$WS/gnb" --seed 10
gradus classify --model "$WS/gnb/model.json" --features "$WS/varfeat.jsonl" \
                --out "$WS/varpost.jsonl"
gradus embed    --corpus "$WS/samples/scores" --out "$WS/varemb.jsonl"
gradus lmx decode --tokens "$WS/sky.jsonl" --out-dir "$WS/skyscores"
gradus features --corpus "$WS/skyscores" --out "$WS/origfeat.jsonl"
gradus classify --model "$WS/gnb/model.json" --features "$WS/origfeat.jsonl" \
                --out "$WS/origpost.jsonl"
gradus embed    --corpus "$WS/skyscores" --out "$WS/origemb.jsonl"

for strategy in filtered random; do
  for gap in 1 2; do
    gradus mine-pairs --variations "$WS/samples/variations.jsonl" \
                      --posteriors "$WS/varpost.jsonl" \
                      --embeddings "$WS/varemb.jsonl" \
                      --strategy "$strategy" --min-gap "$gap" \
                      --out-dir "$WS/mine_${strategy}_${gap}"
  done
done

gradus evaluate --runs "$WS"/mine_*_* \
                --original-posteriors "$WS/origpost.jsonl" \
                --variation-posteriors "$WS/varpost.jsonl" \
                --original-embeddings "$WS/origemb.jsonl" \
                --variation-embeddings "$WS/varemb.jsonl" \
                --corpus "$WS/corpus" --out-dir "$WS/eval"

echo
echo "=== outcome table ==="
cat "$WS/eval/report.csv"
echo
echo "=== markdown report (head) ==="
head -n 12 "$WS/eval/report.md"
