#!/usr/bin/env bash
# Byte-level regression check: runs `ttga full-pipeline --seed 7` from the
# sources under SRC on two tiny configurations (the analytic denoiser, and a
# trained conv denoiser with masks redrawn at every step), `ttga augment
# --seed 7` with null-text traces on the analytic one, and make-data,
# train-denoiser, train-segmenter and evaluate in turn on the analytic one;
# and writes the sha256 digests of the evaluation CSVs, both model
# checkpoints, the augmentation metadata and the traces to OUT.
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

run full-pipeline analytic "${tiny[@]}"
run full-pipeline trainable "${tiny[@]}" "${trainable[@]}"
run augment augment "${tiny[@]}" --count 2 --set nulltext_trace=true
staged="$runs/staged"
run make-data staged "${tiny[@]}"
run train-denoiser staged "${tiny[@]}" --set data_dir="$staged/data"
run train-segmenter staged "${tiny[@]}" --set data_dir="$staged/data"
run evaluate staged/run "${tiny[@]}" --set data_dir="$staged/data" \
    --set denoiser_checkpoint="$staged/models/denoiser.ckpt" \
    --set segmenter_checkpoint="$staged/models/segmenter.ckpt" \
    --set semantic_embedding="$staged/models/semantic.f64"

files=()
for name in analytic trainable; do
    for rel in eval/per_image.csv eval/aggregate.csv eval/augment_metadata.csv \
               models/denoiser.ckpt models/segmenter.ckpt; do
        files+=("$name/$rel")
    done
done
for rel in metadata.csv nulltext_trace_0000.csv nulltext_trace_0001.csv; do
    files+=("augment/augment/$rel")
done
for rel in per_image.csv aggregate.csv augment_metadata.csv; do
    files+=("staged/run/eval/$rel")
done
(cd "$runs" && sha256sum "${files[@]}") > "$out"
