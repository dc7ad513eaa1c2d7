"""Randomized run fuzz: `evaluate` and `augment` on tiny configurations,
each with several config fields drawn at random, must end in a documented
exit code without a traceback or a RuntimeWarning, write tables of the
promised size on success, and write the same bytes when run again."""

import contextlib
import csv
import io
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ttga.cli import main
from ttga.masks import SCHEMES
from ttga.runconfig import CHOICES, METHODS, RunConfig, resolve_config

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# small enough that one run takes tens of milliseconds
TINY = {
    "size": 10, "n_train": 8, "n_test": 2, "tau": 10, "inversion_interval": 5,
    "n_augment": 2, "embedding_dim": 6, "denoiser_hidden": 4, "denoiser_epochs": 1,
    "seg_hidden": 4, "seg_epochs": 2, "nulltext_max_steps": 5, "tta_views": 2,
}


def _mostly(valid, edges):
    """A value from ``valid`` seven times in eight, else one of ``edges``:
    values out of range or at its ends. Every drawn key gets its edge
    values now and then, while most runs get past config checks."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else st.sampled_from(edges))


# the valid values of each integer field that sizes the work stay at most a
# little past TINY's
INTS = {
    "size": (1, 12), "n_train": (1, 16), "n_test": (1, 3), "total_steps": (20, 60),
    "embedding_dim": (1, 8), "denoiser_hidden": (1, 6), "denoiser_epochs": (0, 2),
    "denoiser_batch": (1, 8), "tau": (1, 20), "inversion_interval": (1, 25),
    "n_augment": (1, 3), "club_stride": (1, 4), "nulltext_max_steps": (0, 6),
    "seg_hidden": (1, 6), "seg_epochs": (1, 3), "tta_views": (1, 3), "seed": (0, 2**64 - 1),
}
FLOATS = {
    "train_occlusion": (0.0, 1.0), "test_occlusion": (0.0, 1.0),
    "train_blur": (0.0, 2.0), "test_blur": (0.0, 2.0),
    "train_noise": (0.0, 0.2), "test_noise": (0.0, 0.2),
    "beta_start": (1e-5, 1e-3), "beta_end": (5e-3, 0.05), "data_std": (0.1, 5.0),
    "denoiser_lr": (1e-4, 1e-2), "drop_p": (0.0, 1.0), "omega": (0.0, 5.0),
    "lambda_c": (0.0, 2.0), "lambda_r_low": (0.0, 1.0), "lambda_r_high": (1.0, 2.0),
    "p_m": (0.0, 1.0), "relevance_quantile": (0.0, 0.9), "nulltext_lr": (1e-3, 1.0),
    "nulltext_early_stop": (0.0, 1e-2), "seg_lr": (1e-4, 0.1), "tta_jitter": (0.0, 0.1),
}
FLOAT_EDGES = [0.0, -0.0, -1.0, 1e-300, 1.0, 1e3, 1e4, 1e300, math.inf, -math.inf, math.nan,
               1e308, sys.float_info.max, -sys.float_info.max, 5e-324, 2.2e-308]
PATHS = ("data_dir", "denoiser_checkpoint", "segmenter_checkpoint", "semantic_embedding")
STRINGS = {
    **{name: _mostly(st.sampled_from(allowed), ["other"]) for name, allowed in CHOICES.items()},
    "mask_scheme": _mostly(st.sampled_from(SCHEMES), ["other"]),
    "invert_with": _mostly(st.sampled_from(("semantic", "null")), ["other"]),
    "methods": _mostly(st.lists(st.sampled_from(METHODS), min_size=1, unique=True).map(",".join),
                       ["", ",", "ttga,ttga", "other", " tta , baseline"]),
    # no file, or a path to none
    **{name: _mostly(st.just(""), ["absent"]) for name in PATHS},
}


def _values(f):
    if f.name in INTS:
        lo, hi = INTS[f.name]
        return _mostly(st.integers(lo, hi), [lo - 1, hi + 1] if f.name == "seed" else [lo - 1, -1])
    if f.name in FLOATS:
        return _mostly(st.floats(*FLOATS[f.name]), FLOAT_EDGES)
    if f.name in STRINGS:
        return STRINGS[f.name]
    assert f.type == "bool", f.name
    return st.booleans()


VALUES = {f.name: _values(f) for f in RunConfig.__dataclass_fields__.values()
          if f.init and f.name != "out"}
DRAWS = st.lists(st.sampled_from(sorted(VALUES)), min_size=6, max_size=10, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: VALUES[k] for k in keys}))


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _run(root: Path, command: str, drawn: dict, *extra) -> tuple[int, Path]:
    out = Path(tempfile.mkdtemp(dir=root)) / "out"
    values = {**TINY, **drawn}
    args = [a for key, value in values.items() for a in ("--set", f"{key}={_text(value)}")]
    args = [a.replace("=absent", f"={root / 'absent'}") for a in args]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--out", str(out), *args, *map(str, extra)])
    assert code in (0, 2, 3, 4, 5, 6), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code, out


def _files(out: Path) -> dict:
    """Every file a run wrote, but its log and resolved config, which hold
    timestamps and the run's own path."""
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name not in ("run.log", "resolved-config.txt")}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _rerun_matches(root, command, drawn, code, out, *extra) -> None:
    again, out_again = _run(root, command, drawn, *extra)
    assert again == code
    if code == 0:
        assert _files(out_again) == _files(out)


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    return tmp_path_factory.mktemp("run_fuzz")


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(drawn=DRAWS)
# weights near 1e300 from the learning rate meet augmented images near 1e298
# from lambda_c: the segmenter's first products overflow
@example(drawn={"seg_lr": 1e300, "lambda_c": 1e300})
def test_evaluate_run_ends_in_a_documented_exit(fuzz_root, drawn):
    code, out = _run(fuzz_root, "evaluate", drawn)
    if code == 0:
        cfg = resolve_config(str(out / "resolved-config.txt"))
        assert len(_rows(out / "eval" / "per_image.csv")) == cfg.n_test * len(cfg.method_list())
        assert all(int(row["n"]) <= cfg.n_test for row in _rows(out / "eval" / "aggregate.csv"))
    _rerun_matches(fuzz_root, "evaluate", drawn, code, out)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(drawn=DRAWS, count=st.integers(-1, 3))
def test_augment_run_ends_in_a_documented_exit(fuzz_root, drawn, count):
    code, out = _run(fuzz_root, "augment", drawn, "--count", count)
    if code == 0:
        cfg = resolve_config(str(out / "resolved-config.txt"))
        rows = _rows(out / "augment" / "metadata.csv")
        assert len(rows) == min(count, cfg.n_test) * cfg.n_augment
    _rerun_matches(fuzz_root, "augment", drawn, code, out, "--count", count)
