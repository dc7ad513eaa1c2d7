#!/usr/bin/env bash
# Byte-level regression check: runs `ttga full-pipeline --seed 7` from the
# sources under SRC on two tiny configurations (the analytic denoiser, with
# --dump-images, and a trained conv denoiser with masks redrawn at every
# step), `ttga compare-report --plot` over those two runs, `ttga augment
# --seed 7` with null-text traces on the analytic one and on the conv one
# (masks held, saliency relevance, a fixed number of null-text iterations),
# `ttga augment --seed 7` on the analytic one twice more with a club stride
# of 3 and lambda_r fixed at 0 (once with masks redrawn at every step, once
# with attention masks held and lambda_c at 0, which runs the loop on the
# club pixels only), once at data_std 0.5, where the analytic model's
# posterior scale is not the unit-variance one, and once with attention
# masks that read the segmenter's relevance, so `augment` trains a segmenter
# and segments each original itself, make-data,
# train-denoiser, train-segmenter and evaluate in turn on the analytic one,
# `ttga evaluate --seed 7` on the analytic one with the threshold
# segmenter and attention masks that read the segmenter's relevance, and
# once more with the tiny settings read from a --config file and with
# --methods baseline,ttga --mask-scheme attention --resample-masks-per-step;
# and writes the sha256 digests of every file these runs write (datasets,
# model files, CSVs, traces, grids, PGM dumps and SVG plots) to OUT, except
# run.log, resolved-config.txt and data/manifest.csv.
# Two trees that should produce the same bytes produce the same OUT:
#
#     tools/bytecheck.sh path/to/base base.sha256
#     tools/bytecheck.sh . head.sha256
#     diff base.sha256 head.sha256
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src="$(cd "$1" && pwd)/src"
out="$2"
if [ ! -f "$src/ttga/__init__.py" ]; then
    echo "error: no ttga sources under $src" >&2
    exit 2
fi

runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT

# one BLAS thread, so matrix products sum in the same order on every machine
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

tiny=(--set n_train=60 --set n_test=6 --set seg_epochs=5 --set seg_hidden=8)
trainable=(--set n_test=4 --set denoiser=trainable --set denoiser_hidden=16
           --set embedding_dim=16 --set tau=40 --set n_augment=4
           --set denoiser_epochs=3 --set resample_masks_per_step=true)

run() {
    local command="$1" name="$2"
    shift 2
    PYTHONPATH="$src" python3 -m ttga "$command" --out "$runs/$name" --seed 7 "$@" >/dev/null
}

run full-pipeline analytic "${tiny[@]}" --dump-images
run full-pipeline trainable "${tiny[@]}" "${trainable[@]}"
PYTHONPATH="$src" python3 -m ttga compare-report "$runs/analytic" "$runs/trainable" \
    --out "$runs/compare/compare.csv" --plot >/dev/null
run augment augment "${tiny[@]}" --count 2 --set nulltext_trace=true
run augment augment-conv "${tiny[@]}" "${trainable[@]}" --count 2 \
    --set resample_masks_per_step=false --set relevance_provider=saliency \
    --set nulltext_early_stop=0 --set nulltext_max_steps=20 --set nulltext_trace=true
run augment augment-steps "${tiny[@]}" --count 2 --set club_stride=3 \
    --set resample_masks_per_step=true --set lambda_r_low=0 --set lambda_r_high=0
run augment augment-held "${tiny[@]}" --count 2 --set club_stride=3 \
    --set lambda_r_low=0 --set lambda_r_high=0 --set lambda_c=0 --set mask_scheme=attention
run augment augment-std "${tiny[@]}" --count 2 --set data_std=0.5
run augment augment-seg "${tiny[@]}" --count 2 --set relevance_provider=segmenter \
    --set mask_scheme=attention
staged="$runs/staged"
run make-data staged "${tiny[@]}"
run train-denoiser staged "${tiny[@]}" --set data_dir="$staged/data"
run train-segmenter staged "${tiny[@]}" --set data_dir="$staged/data"
run evaluate staged/run "${tiny[@]}" --set data_dir="$staged/data" \
    --set denoiser_checkpoint="$staged/models/denoiser.ckpt" \
    --set segmenter_checkpoint="$staged/models/segmenter.ckpt" \
    --set semantic_embedding="$staged/models/semantic.f64"
run evaluate threshold "${tiny[@]}" --set segmenter=threshold \
    --set relevance_provider=segmenter --set mask_scheme=attention
{
    echo "# the tiny settings, read through --config"
    printf '%s\n' "${tiny[@]}" | grep -v -- '^--set$'
} > "$runs/tiny.cfg"
run evaluate configured --config "$runs/tiny.cfg" --methods baseline,ttga \
    --mask-scheme attention --resample-masks-per-step

# every file the runs wrote but the three that differ between runs of the
# same tree: run.log (timestamps), resolved-config.txt and data/manifest.csv
# (both hold the run's temporary paths); tiny.cfg is an input
(cd "$runs" && find . -type f ! -name run.log ! -name resolved-config.txt ! -name tiny.cfg \
    ! -path '*/data/manifest.csv' -printf '%P\n' | LC_ALL=C sort | xargs sha256sum) > "$out"
