#!/usr/bin/env bash
# Byte-level regression check: runs `ttga full-pipeline --seed 7` from the
# sources under SRC on two tiny configurations (the analytic denoiser, and a
# trained conv denoiser with masks redrawn at every step) and writes the
# sha256 digests of the evaluation CSVs and both model checkpoints to OUT.
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
    local name="$1"
    shift
    PYTHONPATH="$src" python3 -m ttga full-pipeline --out "$runs/$name" --seed 7 "$@" >/dev/null
}

run analytic "${tiny[@]}"
run trainable "${tiny[@]}" "${trainable[@]}"

files=()
for name in analytic trainable; do
    for rel in eval/per_image.csv eval/aggregate.csv eval/augment_metadata.csv \
               models/denoiser.ckpt models/segmenter.ckpt; do
        files+=("$name/$rel")
    done
done
(cd "$runs" && sha256sum "${files[@]}") > "$out"
