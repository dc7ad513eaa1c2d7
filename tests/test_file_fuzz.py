"""Randomized file fuzz: `evaluate` over a run's files after one of them is
truncated or has one byte flipped must end in a documented exit code, and a
failing run must stop before any training."""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ttga.cli import main

TINY = [
    "--set", "n_train=12", "--set", "n_test=2", "--set", "size=12", "--set", "n_augment=2",
    "--set", "tau=10", "--set", "inversion_interval=5", "--set", "embedding_dim=8",
    "--set", "seg_epochs=2", "--set", "seg_hidden=4", "--set", "nulltext_max_steps=5",
    "--set", "tta_views=2",
]

# the fuzzed files, by their path in a full-pipeline run, with the size of
# their header: the checkpoint and grid headers, and the manifest's column
# names (its first line without the line end: a cut inside the line end
# leaves every column name whole)
FILES = {
    "denoiser": ("models/denoiser.ckpt", 36),
    "segmenter": ("models/segmenter.ckpt", 36),
    "scene": ("data/test/scene_0000.f64", 16),
    "manifest": ("data/manifest.csv", None),
}


def _run(*args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    code, err = _run("full-pipeline", "--out", root / "run", "--seed", 5, *TINY)
    assert code == 0, err
    return root


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(FILES)), truncate=st.booleans(), in_header=st.booleans(),
       where=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255))
def test_damaged_file_gives_a_documented_exit_before_training(fuzz_root, name, truncate,
                                                               in_header, where, mask):
    work = Path(tempfile.mkdtemp(dir=fuzz_root))
    for part in ("data", "models"):
        shutil.copytree(fuzz_root / "run" / part, work / part)
    relative, header = FILES[name]
    path = work / relative
    data = bytearray(path.read_bytes())
    if header is None:
        header = data.index(b"\r\n")
    low, high = (0, header) if in_header else (header, len(data))
    offset = low + int(where * (high - low))
    if truncate:
        del data[offset:]
    else:
        data[offset] ^= mask
    path.write_bytes(bytes(data))

    out = work / "out"
    code, err = _run("evaluate", "--out", out, *TINY, "--set", f"data_dir={work / 'data'}",
                     "--set", f"denoiser_checkpoint={work / 'models' / 'denoiser.ckpt'}",
                     "--set", f"segmenter_checkpoint={work / 'models' / 'segmenter.ckpt'}",
                     "--set", f"semantic_embedding={work / 'models' / 'semantic.f64'}")
    assert code in (0, 2, 3, 6), err
    assert "Traceback" not in err
    if in_header or (truncate and name != "manifest"):
        assert code == 6, err
    log = out / "run.log"
    if code != 0 and log.exists():
        assert "trained" not in log.read_text()
    shutil.rmtree(work)
