import csv
import dataclasses
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ttga
from ttga import checkpoint, cli, gridio, pipeline
from ttga.cli import main
from ttga.errors import ConfigError
from ttga.evalbench import ConvSegmenter, ThresholdSegmenter, save_segmenter
from ttga.runconfig import RunConfig, load_config_file, resolve_config, write_resolved_config

TINY = [
    "--set", "n_train=40", "--set", "n_test=6", "--set", "n_augment=2",
    "--set", "tau=40", "--set", "inversion_interval=10",
    "--set", "embedding_dim=64", "--set", "seg_epochs=6",
    "--set", "nulltext_max_steps=60", "--set", "size=24",
]


def run_cli(*args):
    return main([str(a) for a in args])


def read_text(path):
    return Path(path).read_bytes()


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "run_a"
    code = run_cli("full-pipeline", "--out", out, "--seed", 3, *TINY)
    assert code == 0
    return out


# ---- config precedence ----


def test_config_precedence_three_layers(tmp_path):
    assert RunConfig().tau == 300  # built-in default
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("tau = 120\nseed = 9  # trailing comment\n")
    file_only = resolve_config(str(cfg_file), {})
    assert file_only.tau == 120 and file_only.seed == 9
    flag_wins = resolve_config(str(cfg_file), {"tau": 77})
    assert flag_wins.tau == 77 and flag_wins.seed == 9


def test_unknown_config_field_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("taus = 12\n")
    with pytest.raises(Exception, match="unknown config field"):
        load_config_file(cfg_file)


def test_cli_exit_codes(tmp_path):
    assert run_cli("evaluate", "--config", tmp_path / "absent.cfg") == 2
    assert run_cli("full-pipeline", "--set", "denoiser=quantum") == 3
    assert run_cli("full-pipeline", "--set", "tau=0", "--out", tmp_path / "x") == 3


BAD_SETTINGS = [("evaluate", [s]) for s in (
    "omega=1", "omega=-1", "lambda_c=-1", "p_m=2", "relevance_quantile=1",
    "inversion_interval=0", "data_std=0", "data_std=1e300", "data_std=1e-300",
    "data_std=1e-9", "size=0", "seg_epochs=0", "tta_views=0",
    "n_augment=0", "club_stride=0", "lambda_r_low=2", "invert_with=foo",
    "nulltext_lr=nan", "nulltext_max_steps=-5", "nulltext_early_stop=nan", "beta_end=0.9",
    "test_blur=nan", "test_blur=101", "train_blur=1e300", "train_noise=nan",
    "test_occlusion=2", "train_occlusion=-1",
    "tta_jitter=nan", "tta_jitter=-1", "methods=", "methods=,", "methods=ttga,ttga",
    "methods=baseline, tta,baseline",
)] + [("train-denoiser", ["denoiser=trainable", s])
      for s in ("denoiser_batch=0", "denoiser_hidden=0")]


@pytest.mark.parametrize("command, sets", BAD_SETTINGS,
                         ids=[s[-1] for _, s in BAD_SETTINGS])
def test_bad_value_exits_3_before_any_work(tmp_path, capsys, command, sets):
    out = tmp_path / "x"
    args = [a for s in sets for a in ("--set", s)]
    assert run_cli(command, "--out", out, *TINY, *args) == 3
    err = capsys.readouterr().err
    key = sets[-1].split("=")[0]
    assert f"invalid config: {key}" in err and "Traceback" not in err
    assert not (out / "run.log").exists()


BAD_FLAGS = [
    ("evaluate", ["--seed", "abc"], "seed"),
    ("evaluate", ["--seed", "1.5"], "seed"),
    ("evaluate", ["--mask-scheme", "foo"], "mask_scheme"),
    ("augment", ["--count", "x"], "--count"),
]


@pytest.mark.parametrize("command, flags, key", BAD_FLAGS,
                         ids=[" ".join(f) for _, f, _ in BAD_FLAGS])
def test_bad_flag_value_exits_3_naming_its_key(tmp_path, capsys, command, flags, key):
    out = tmp_path / "x"
    assert run_cli(command, "--out", out, *TINY, *flags) == 3
    err = capsys.readouterr().err
    assert "invalid config:" in err and key in err and "Traceback" not in err
    assert not (out / "run.log").exists()


def test_evaluate_keeps_freed_buffers(tmp_path, monkeypatch):
    # evaluate from checkpoints never reaches fit, so the command itself calls it
    calls = []
    monkeypatch.setattr(cli, "keep_freed_batches", lambda: calls.append(True))
    assert run_cli("evaluate", "--out", tmp_path / "x", "--set", "n_train=4",
                   "--set", "n_test=1", "--set", "size=8", "--set", "seg_epochs=1",
                   "--set", "methods=baseline") == 0
    assert calls == [True]


def _values_of(f):
    if f.type == "bool":
        return st.booleans()
    if f.type == "int":
        # total_steps sizes the schedule tables built with the config
        return st.integers(-2**20, 2**20)
    if f.type == "float":
        return st.floats(allow_nan=True, allow_infinity=True)
    return st.text(max_size=12)


CONFIG_FIELDS = [f for f in dataclasses.fields(RunConfig) if f.init]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CONFIG_FIELDS).flatmap(
    lambda f: st.tuples(st.just(f.name), _values_of(f))))
def test_any_single_value_resolves_or_is_rejected(item):
    name, value = item
    try:
        cfg = resolve_config(None, {name: value})
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


def test_run_config_builds_typed_configs_once(tmp_path):
    cfg = resolve_config(None, {"tau": 40, "seg_epochs": 3, "nulltext_lr": 0.2})
    assert cfg.ttga.tau == 40 and cfg.ttga.null_opt.lr == 0.2
    assert cfg.seg_train.epochs == 3 and cfg.schedule.total_steps == cfg.total_steps
    assert cfg.denoiser_train.batch_size == cfg.denoiser_batch
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.tau = 50
    assert dataclasses.replace(cfg, tau=50).ttga.tau == 50
    write_resolved_config(cfg, tmp_path / "resolved.txt")
    keys = [line.split(" = ")[0] for line in (tmp_path / "resolved.txt").read_text().splitlines()]
    assert keys == sorted(f.name for f in CONFIG_FIELDS)


def test_compare_schema_mismatch_exit_code(tmp_path, pipeline_run):
    other = tmp_path / "other"
    (other / "eval").mkdir(parents=True)
    (other / "eval" / "aggregate.csv").write_text("method,task,bogus\n")
    assert run_cli("compare-report", pipeline_run, other,
                   "--out", tmp_path / "cmp.csv") == 5


MALFORMED_AGGREGATES = {
    "empty": lambda text: b"",
    "non_numeric_cell":
        lambda text: text.replace(text.splitlines()[1].split(",")[2], "high", 1).encode(),
    "short_row": lambda text: (text + "ttga,segmentation,0.5\n").encode(),
    "not_utf8": lambda text: text.encode() + b"tta,segmentation,\xff\n",
}


@pytest.mark.parametrize("case", list(MALFORMED_AGGREGATES))
def test_compare_malformed_aggregate_exits_5_naming_the_file(tmp_path, capsys, pipeline_run, case):
    text = (pipeline_run / "eval" / "aggregate.csv").read_text()
    bad = tmp_path / "bad" / "eval" / "aggregate.csv"
    bad.parent.mkdir(parents=True)
    bad.write_bytes(MALFORMED_AGGREGATES[case](text))
    assert run_cli("compare-report", pipeline_run, bad.parent.parent,
                   "--out", tmp_path / "cmp.csv") == 5
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    assert not (tmp_path / "cmp.csv").exists()


@pytest.mark.parametrize("partial_first", [True, False])
def test_compare_report_runs_must_hold_the_same_rows(tmp_path, capsys, pipeline_run,
                                                     partial_first):
    text = (pipeline_run / "eval" / "aggregate.csv").read_text()
    partial = tmp_path / "partial"
    (partial / "eval").mkdir(parents=True)
    (partial / "eval" / "aggregate.csv").write_text(
        "".join(line for line in text.splitlines(True) if not line.startswith("ttga,")))
    runs = [partial, pipeline_run] if partial_first else [pipeline_run, partial]
    assert run_cli("compare-report", *runs, "--out", tmp_path / "cmp.csv") == 5
    err = capsys.readouterr().err
    assert f"{runs[1]}: (method, task) rows" in err and "Traceback" not in err
    assert not (tmp_path / "cmp.csv").exists()


@pytest.mark.parametrize("case", ["config_directory", "config_not_utf8", "out_is_a_file",
                                  "out_under_a_file", "compare_out_is_a_directory",
                                  "config_under_a_file", "compare_out_under_a_file"])
def test_unusable_path_exits_3(tmp_path, capsys, pipeline_run, case):
    a_file = tmp_path / "a_file"
    a_file.write_text("not a directory\n")
    out = tmp_path / "x"
    if case == "config_directory":
        named, args = tmp_path, ("evaluate", "--config", tmp_path, "--out", out)
    elif case == "config_under_a_file":
        named = a_file / "x.cfg"
        args = ("evaluate", "--config", named, "--out", out)
    elif case == "compare_out_under_a_file":
        named = a_file / "c.csv"
        args = ("compare-report", pipeline_run, "--out", named)
    elif case == "config_not_utf8":
        named = tmp_path / "latin1.cfg"
        named.write_bytes(b"tau = 40  # caf\xe9\n")
        args = ("evaluate", "--config", named, "--out", out)
    elif case == "out_is_a_file":
        named, args = a_file, ("make-data", "--out", a_file, *TINY)
    elif case == "out_under_a_file":
        named, args = a_file / "x", ("make-data", "--out", a_file / "x", *TINY)
    else:
        named, args = tmp_path, ("compare-report", pipeline_run, "--out", tmp_path)
    assert run_cli(*args) == 3
    err = capsys.readouterr().err
    assert str(named) in err and "Traceback" not in err
    assert not out.exists() and a_file.read_text() == "not a directory\n"


def test_compare_report_run_that_is_a_file_exits_2(tmp_path, capsys, pipeline_run):
    a_file = tmp_path / "a_file"
    a_file.write_text("not a run directory\n")
    assert run_cli("compare-report", pipeline_run, a_file, "--out", tmp_path / "cmp.csv") == 2
    err = capsys.readouterr().err
    assert str(a_file) in err and "Traceback" not in err
    assert not (tmp_path / "cmp.csv").exists()


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": "2"}])
def test_blas_threads_default_to_one_unless_set(preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(Path(ttga.__file__).parents[1]))
    probe = f"import os, ttga; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == [preset.get(v, "1") for v in BLAS_VARS]


def test_ttga_does_not_import_scipy_stats():
    # scipy.stats costs about 43 MB and 0.7 s at start-up, and scipy.sparse is
    # loaded only by the first conv backward; the tests import both
    # themselves, so look in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(Path(ttga.__file__).parents[1]))
    probe = ("import sys, ttga, ttga.cli, ttga.pipeline; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith(('scipy.stats', 'scipy.sparse'))))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("setting", ["n_test=-3", "n_test=0", "n_train=0"])
def test_empty_dataset_split_exits_3_before_training(tmp_path, capsys, setting):
    out = tmp_path / "x"
    assert run_cli("full-pipeline", "--out", out, *TINY, "--set", setting) == 3
    assert f"invalid config: {setting.split('=')[0]}" in capsys.readouterr().err
    assert not (out / "models").exists()


# ---- artifacts ----


def test_make_data_artifacts(tmp_path):
    out = tmp_path / "data_run"
    assert run_cli("make-data", "--out", out, "--seed", 1, *TINY) == 0
    manifest = out / "data" / "manifest.csv"
    assert manifest.exists()
    with open(manifest, newline="") as f:
        rows = list(csv.DictReader(f))
    assert sum(r["split"] == "train" for r in rows) == 40
    assert sum(r["split"] == "test" for r in rows) == 6
    assert all(Path(r["image_path"]).exists() for r in rows)
    assert (out / "resolved-config.txt").exists()


def test_full_pipeline_artifacts(pipeline_run):
    assert (pipeline_run / "eval" / "per_image.csv").exists()
    assert (pipeline_run / "eval" / "aggregate.csv").exists()
    assert (pipeline_run / "eval" / "augment_metadata.csv").exists()
    assert (pipeline_run / "models" / "denoiser.ckpt").exists()
    assert (pipeline_run / "models" / "segmenter.ckpt").exists()
    assert (pipeline_run / "resolved-config.txt").exists()
    assert (pipeline_run / "run.log").exists()


def test_aggregate_schema_three_methods_two_tasks(pipeline_run):
    with open(pipeline_run / "eval" / "aggregate.csv", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    assert header[:2] == ["method", "task"]
    assert len(rows) == 6
    assert [(r[0], r[1]) for r in rows] == [
        ("baseline", "segmentation"), ("baseline", "error_estimation"),
        ("tta", "segmentation"), ("tta", "error_estimation"),
        ("ttga", "segmentation"), ("ttga", "error_estimation"),
    ]
    # hd95 cells are empty in error-estimation rows, six-decimal elsewhere
    for r in rows:
        if r[1] == "error_estimation":
            assert r[6] == "" and r[7] == ""
        else:
            assert "." in r[6] and len(r[6].split(".")[1]) == 6


def test_reruns_are_byte_identical(tmp_path, pipeline_run):
    out2 = tmp_path / "run_b"
    assert run_cli("full-pipeline", "--out", out2, "--seed", 3, *TINY) == 0
    for rel in ("eval/per_image.csv", "eval/aggregate.csv",
                "eval/augment_metadata.csv", "data/manifest.csv"):
        a = read_text(pipeline_run / rel)
        b = (out2 / rel).read_bytes().replace(str(out2).encode(), str(pipeline_run).encode())
        assert a == b, rel


def test_different_seed_changes_outputs(tmp_path, pipeline_run):
    out2 = tmp_path / "run_seed9"
    assert run_cli("full-pipeline", "--out", out2, "--seed", 9, *TINY) == 0
    assert read_text(pipeline_run / "eval" / "per_image.csv") != \
        read_text(out2 / "eval" / "per_image.csv")


def test_dump_images_writes_pgms(tmp_path):
    out = tmp_path / "dump_run"
    assert run_cli("full-pipeline", "--out", out, "--seed", 5, "--dump-images",
                   "--set", "n_train=30", "--set", "n_test=2",
                   "--set", "n_augment=2", "--set", "tau=30",
                   "--set", "embedding_dim=48", "--set", "seg_epochs=4",
                   "--set", "nulltext_max_steps=40", "--set", "size=24") == 0
    dump = out / "eval" / "dump"
    assert list(dump.glob("aug_*.pgm"))
    assert list(dump.glob("entropy_*.pgm"))
    assert list((out / "data" / "test").glob("*.pgm"))


def test_augment_command_metadata(tmp_path):
    out = tmp_path / "aug_run"
    assert run_cli("augment", "--out", out, "--seed", 2, "--count", 2, *TINY,
                   "--set", "segmenter=threshold") == 0
    meta = out / "augment" / "metadata.csv"
    with open(meta, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4  # 2 images x 2 augmentations
    assert {r["image_id"] for r in rows} == {"0", "1"}
    lam = [float(r["lambda_r"]) for r in rows]
    assert all(0.5 <= v <= 1.5 for v in lam)
    assert list((out / "augment").glob("aug_*.f64"))


def test_augment_inverts_with_the_null_embedding(tmp_path):
    out = tmp_path / "aug_null"
    assert run_cli("augment", "--out", out, "--seed", 2, "--count", 1, *TINY,
                   "--set", "segmenter=threshold", "--set", "invert_with=null") == 0
    assert list((out / "augment").glob("aug_*.f64"))


@pytest.mark.parametrize("count", [0, -1])
def test_augment_rejects_count_below_one(tmp_path, capsys, monkeypatch, count):
    def no_models(*args, **kwargs):
        raise AssertionError("models loaded before --count was checked")
    monkeypatch.setattr(pipeline, "_load_models", no_models)
    out = tmp_path / "aug_run"
    assert run_cli("augment", "--out", out, "--count", count, *TINY) == 3
    err = capsys.readouterr().err
    assert "count must be at least 1" in err and "Traceback" not in err
    assert not (out / "augment").exists() and not (out / "run.log").exists()


def test_augment_trains_a_segmenter_only_for_segmenter_relevance(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("augment trained a segmenter")
    monkeypatch.setattr(pipeline, "train_toy_segmenter", no_training)
    out = tmp_path / "aug_run"
    assert run_cli("augment", "--out", out, "--seed", 2, "--count", 1, *TINY) == 0
    assert "segmenter" not in (out / "run.log").read_text()
    with pytest.raises(AssertionError, match="augment trained a segmenter"):
        run_cli("augment", "--out", tmp_path / "seg_run", "--count", 1, *TINY,
                "--set", "relevance_provider=segmenter")


def test_augment_builds_no_segmenter_for_masks_that_read_no_relevance(tmp_path):
    out = tmp_path / "aug_run"
    assert run_cli("augment", "--out", out, "--seed", 2, "--count", 1, *TINY,
                   "--set", "relevance_provider=segmenter", "--set", "mask_scheme=bernoulli") == 0
    assert "segmenter" not in (out / "run.log").read_text()
    assert list((out / "augment").glob("aug_*.f64"))


def test_evaluate_builds_no_denoiser_without_ttga(tmp_path, capsys, dim8_models):
    """The conv denoiser a ttga-free evaluation would train changes no byte;
    a given denoiser checkpoint is still checked."""
    args = ("evaluate", "--seed", 2, *TINY, "--set", "n_test=2", "--methods", "baseline,tta")
    assert run_cli(*args, "--out", tmp_path / "conv", "--set", "denoiser=trainable") == 0
    assert "denoiser" not in (tmp_path / "conv" / "run.log").read_text()
    assert run_cli(*args, "--out", tmp_path / "analytic") == 0
    assert (read_text(tmp_path / "conv" / "eval" / "per_image.csv")
            == read_text(tmp_path / "analytic" / "eval" / "per_image.csv"))
    ckpt = dim8_models / "denoiser.ckpt"
    assert run_cli(*args, "--out", tmp_path / "x", "--set", f"denoiser_checkpoint={ckpt}") == 3
    assert f"invalid config: {ckpt}" in capsys.readouterr().err


def test_evaluate_segments_each_original_once_for_segmenter_relevance(tmp_path, monkeypatch):
    """With the segmenter as relevance provider, the base segmentation of
    each test image is also its relevance: one ``segment`` call for the
    original and one for the stack of its augmentations."""
    images = []
    segment = ThresholdSegmenter.segment
    monkeypatch.setattr(ThresholdSegmenter, "segment",
                        lambda self, image: images.append(image) or segment(self, image))
    out = tmp_path / "seg_relevance"
    assert run_cli("evaluate", "--out", out, "--seed", 2, *TINY, "--set", "n_test=3",
                   "--set", "segmenter=threshold", "--set", "relevance_provider=segmenter",
                   "--set", "mask_scheme=attention", "--methods", "baseline,ttga") == 0
    assert [im.shape for im in images] == [(24, 24), (2, 24, 24)] * 3  # 2 augmentations each


def test_mask_scheme_flag_applies(tmp_path):
    out = tmp_path / "bern"
    assert run_cli("full-pipeline", "--out", out, "--seed", 3,
                   "--mask-scheme", "bernoulli", *TINY) == 0
    resolved = (out / "resolved-config.txt").read_text()
    assert "mask_scheme = bernoulli" in resolved


def test_compare_report_single_run_passthrough(tmp_path, pipeline_run):
    cmp_path = tmp_path / "cmp_single.csv"
    assert run_cli("compare-report", pipeline_run, "--out", cmp_path) == 0
    with open(cmp_path, newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        assert row[pipeline_run.name] == row["mean"]
        assert float(row["std"]) == 0.0


def test_compare_report_stddev_matches_hand_value(tmp_path, pipeline_run):
    outs = [pipeline_run]
    for seed in (4, 5):
        out = tmp_path / f"run_seed{seed}"
        assert run_cli("full-pipeline", "--out", out, "--seed", seed, *TINY) == 0
        outs.append(out)
    cmp_path = tmp_path / "cmp.csv"
    assert run_cli("compare-report", *outs, "--out", cmp_path, "--plot") == 0
    with open(cmp_path, newline="") as f:
        rows = list(csv.DictReader(f))
    labels = [o.name for o in outs]
    for row in rows[:4]:
        values = [float(row[l]) for l in labels]
        assert float(row["mean"]) == pytest.approx(np.mean(values), abs=5e-7)
        assert float(row["std"]) == pytest.approx(np.std(values, ddof=1), abs=5e-7)
    assert list(tmp_path.glob("plot_*.svg"))


def test_run_log_holds_timestamps_not_csvs(pipeline_run):
    per_image = (pipeline_run / "eval" / "per_image.csv").read_text()
    assert "T" not in per_image.split("\n")[0].replace("TTGA", "")
    log = (pipeline_run / "run.log").read_text()
    assert log.count("-") >= 2
    assert len(re.findall(r" null-text iterations min/median/max \d+/[\d.]+/\d+; "
                          r"optimized null equals the raw null on \d of 6 images\n", log)) == 1


def test_run_log_counts_each_flag_per_method_and_csv_names_the_images(tmp_path):
    """A threshold segmenter is exact on some scenes, so their error ground
    truth is empty and the error AUC of every method is flagged there."""
    out = tmp_path / "flagged"
    assert run_cli("evaluate", "--out", out, "--seed", 3, *TINY,
                   "--set", "segmenter=threshold") == 0
    with open(out / "eval" / "per_image.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    flagged = [r["image_id"] for r in rows
               if r["method"] == "ttga" and r["flags"] == "err_auc_degenerate"]
    assert flagged and all(r["flags"] in ("", "err_auc_degenerate") for r in rows)
    log = (out / "run.log").read_text()
    assert "image " not in log
    lines = [line.split(" ", 1)[1] for line in log.splitlines() if "degenerate" in line]
    assert lines == [f"err_auc_degenerate: {len(flagged)} of 6 images, method {m} "
                     "(excluded from aggregates)" for m in ("baseline", "tta", "ttga")]


def test_run_log_counts_the_images_left_at_the_raw_null(tmp_path):
    """Without a null-text step every image keeps the raw null's bytes."""
    out = tmp_path / "aug_run"
    assert run_cli("augment", "--out", out, "--seed", 2, "--count", 2, *TINY,
                   "--set", "denoiser=trainable", "--set", "denoiser_hidden=4",
                   "--set", "denoiser_epochs=1", "--set", "embedding_dim=8",
                   "--set", "nulltext_max_steps=0") == 0
    lines = [line for line in (out / "run.log").read_text().splitlines() if "null-text" in line]
    assert len(lines) == 1
    assert lines[0].endswith(" null-text iterations min/median/max 0/0/0; "
                             "optimized null equals the raw null on 2 of 2 images")


def test_trainable_denoiser_pipeline_path(tmp_path):
    out = tmp_path / "trainable"
    code = run_cli(
        "full-pipeline", "--out", out, "--seed", 4,
        "--set", "denoiser=trainable", "--set", "embedding_dim=6",
        "--set", "denoiser_hidden=6", "--set", "denoiser_epochs=1",
        "--set", "n_train=24", "--set", "n_test=2", "--set", "n_augment=1",
        "--set", "tau=20", "--set", "seg_epochs=3",
        "--set", "nulltext_max_steps=15", "--set", "size=16",
    )
    assert code == 0
    assert (out / "models" / "denoiser.ckpt").exists()
    with open(out / "eval" / "aggregate.csv", newline="") as f:
        assert len(list(csv.reader(f))) == 7


def test_evaluate_reuses_checkpoints(tmp_path, pipeline_run):
    out = tmp_path / "train_run"
    assert run_cli("make-data", "--out", out, "--seed", 3, *TINY) == 0
    assert run_cli("train-denoiser", "--out", out, "--seed", 3, *TINY,
                   "--set", f"data_dir={out / 'data'}") == 0
    assert run_cli("train-segmenter", "--out", out, "--seed", 3, *TINY,
                   "--set", f"data_dir={out / 'data'}") == 0
    eval_out = tmp_path / "eval_run"
    code = run_cli(
        "evaluate", "--out", eval_out, "--seed", 3, *TINY,
        "--set", f"data_dir={out / 'data'}",
        "--set", f"denoiser_checkpoint={out / 'models' / 'denoiser.ckpt'}",
        "--set", f"segmenter_checkpoint={out / 'models' / 'segmenter.ckpt'}",
        "--set", f"semantic_embedding={out / 'models' / 'semantic.f64'}",
    )
    assert code == 0
    # the staged commands are what full-pipeline runs, so they give its bytes
    for name in ("per_image.csv", "aggregate.csv", "augment_metadata.csv"):
        assert read_text(eval_out / "eval" / name) == read_text(pipeline_run / "eval" / name)


@pytest.fixture(scope="module")
def dim8_models(tmp_path_factory):
    """An analytic checkpoint and a semantic embedding of dim 8 on 24x24 grids."""
    out = tmp_path_factory.mktemp("dim8")
    assert run_cli("train-denoiser", "--out", out, *TINY, "--set", "embedding_dim=8") == 0
    return out / "models"


def test_checkpoint_and_semantic_that_agree_run_at_default_dim(tmp_path, dim8_models):
    default_dim = [a for pair in zip(TINY[::2], TINY[1::2]) if pair[1] != "embedding_dim=64"
                   for a in pair]
    assert run_cli("evaluate", "--out", tmp_path / "x", *default_dim,
                   "--set", "segmenter=threshold",
                   "--set", f"denoiser_checkpoint={dim8_models / 'denoiser.ckpt'}",
                   "--set", f"semantic_embedding={dim8_models / 'semantic.f64'}") == 0


@pytest.mark.parametrize("case", ["checkpoint_dim", "semantic_length", "analytic_grid"])
def test_disagreeing_model_files_exit_3_before_training(tmp_path, capsys, dim8_models, case):
    ckpt = dim8_models / "denoiser.ckpt"
    if case == "checkpoint_dim":
        named, sets = ckpt, [f"denoiser_checkpoint={ckpt}"]
    elif case == "semantic_length":
        named = tmp_path / "semantic5.f64"
        gridio.save_grid(named, np.ones((1, 5)))
        sets = [f"semantic_embedding={named}"]
    else:
        named, sets = ckpt, [f"denoiser_checkpoint={ckpt}", "embedding_dim=8", "size=16"]
    out = tmp_path / "x"
    assert run_cli("evaluate", "--out", out, *TINY,
                   *[a for s in sets for a in ("--set", s)]) == 3
    err = capsys.readouterr().err
    assert f"invalid config: {named}" in err and "Traceback" not in err
    assert not (out / "run.log").exists()


@pytest.mark.parametrize("field", ["denoiser_checkpoint", "segmenter_checkpoint",
                                   "semantic_embedding", "data_dir"])
def test_evaluate_missing_checkpoint_exit_2(tmp_path, capsys, field):
    """The path is absent, of the wrong kind (a directory for a file, a file
    for ``data_dir``) or under a file."""
    a_file = tmp_path / "a_file"
    a_file.write_text("not a directory\n")
    wrong_kind = a_file if field == "data_dir" else tmp_path
    for named in (tmp_path / "absent", wrong_kind, a_file / "x"):
        assert run_cli("evaluate", "--out", tmp_path / "x", *TINY,
                       "--set", f"{field}={named}") == 2, named
        err = capsys.readouterr().err
        assert str(named) in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["denoiser_checkpoint", "segmenter_checkpoint"])
def test_truncated_checkpoint_exit_6(tmp_path, capsys, field):
    ckpt = tmp_path / "short.ckpt"
    ckpt.write_bytes(b"TTGM\x01\x00\x00\x00\x00\x00")
    code = run_cli("evaluate", "--out", tmp_path / "x", *TINY,
                   "--set", "segmenter=threshold", "--set", f"{field}={ckpt}")
    assert code == 6
    err = capsys.readouterr().err
    assert "corrupt checkpoint" in err and "Traceback" not in err


def _nan_last_parameter(path):
    """Overwrite a checkpoint's last parameter with NaN, which no writer emits."""
    path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", float("nan")))


def _write_bad_checkpoint(path, case):
    """A checkpoint for TINY's 24x24 grids and dim-64 embedding with one defect."""
    n, dim, hidden = 24 * 24, 64, 4
    analytic = np.concatenate([[3.0], np.zeros(n), np.zeros(n * dim)])
    if case in ("analytic_data_std_negative", "analytic_data_std_overflow"):
        analytic[0] = -1.0 if case == "analytic_data_std_negative" else 1e300
        checkpoint.write(path, "analytic_gaussian", (dim, 24, 24, 1, 0), analytic)
    elif case == "analytic_nan":
        checkpoint.write(path, "analytic_gaussian", (dim, 24, 24, 1, 0), analytic)
        _nan_last_parameter(path)
    elif case == "conv_hidden_0":
        checkpoint.write(path, "trainable_net", (dim, 0, 0, 1, 0), np.zeros(4))
    elif case == "conv_three_channels":
        in_ch = 3 + dim + 8
        count = 9 * in_ch * hidden + hidden + 2 * (9 * hidden + 1) * hidden + 9 * hidden * 3 + 3
        checkpoint.write(path, "trainable_net", (dim, 0, 0, 3, hidden), np.zeros(count))
    elif case == "analytic_hidden_width":
        checkpoint.write(path, "analytic_gaussian", (dim, 24, 24, 1, hidden), analytic)
    elif case == "conv_grid":
        checkpoint.write(path, "trainable_net", (dim, 24, 24, 1, hidden), np.zeros(4))
    elif case == "segmenter_hidden_0":
        checkpoint.write(path, "trained_net", (0, 0, 0, 1, 0), np.zeros(3))
    elif case == "segmenter_grid":
        checkpoint.write(path, "trained_net", (dim, 24, 24, 1, hidden), np.zeros(3))
    else:
        save_segmenter(path, ConvSegmenter(hidden=hidden))
        _nan_last_parameter(path)


BAD_CHECKPOINTS = {
    "analytic_data_std_negative": ("denoiser_checkpoint", "data_std -1.0 is not positive"),
    "analytic_data_std_overflow": ("denoiser_checkpoint", "data_std 1e+300 is not positive"
                                   " with a finite square"),
    "analytic_nan": ("denoiser_checkpoint", "non-finite parameters"),
    "conv_hidden_0": ("denoiser_checkpoint", "hidden width 0"),
    "conv_three_channels": ("denoiser_checkpoint", "3 grid channels"),
    "analytic_hidden_width": ("denoiser_checkpoint", "grid (24, 24) and hidden width 4"),
    "conv_grid": ("denoiser_checkpoint", "grid (24, 24) and hidden width 4"),
    "segmenter_hidden_0": ("segmenter_checkpoint", "hidden width 0"),
    "segmenter_grid": ("segmenter_checkpoint", "header fields (64, 24, 24, 1, 4)"),
    "segmenter_nan": ("segmenter_checkpoint", "non-finite parameters"),
}


@pytest.mark.parametrize("case", list(BAD_CHECKPOINTS))
def test_bad_checkpoint_exits_6_before_any_work(tmp_path, capsys, case):
    field, message = BAD_CHECKPOINTS[case]
    ckpt = tmp_path / f"{case}.ckpt"
    _write_bad_checkpoint(ckpt, case)
    out = tmp_path / "x"
    assert run_cli("evaluate", "--out", out, *TINY, "--set", "segmenter=threshold",
                   "--set", f"{field}={ckpt}") == 6
    err = capsys.readouterr().err
    assert str(ckpt) in err and message in err and "Traceback" not in err
    assert not (out / "run.log").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, sets", [
    ("train-segmenter", ["seg_lr=1e308"]),
    ("train-denoiser", ["denoiser=trainable", "denoiser_hidden=4", "denoiser_lr=1e308"]),
    ("evaluate", ["seg_lr=1e308"]),
])
def test_diverged_training_exits_4_and_writes_no_checkpoint(tmp_path, capsys, command, sets):
    out = tmp_path / "x"
    assert run_cli(command, "--out", out, *TINY, "--set", "denoiser_epochs=1",
                   *[a for s in sets for a in ("--set", s)]) == 4
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err
    assert not list((out / "models").glob("*.ckpt"))


@pytest.fixture(scope="module")
def made_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("made")
    assert run_cli("make-data", "--out", out, "--seed", 1, *TINY) == 0
    return out / "data"


def _data_with_manifest(made_data, tmp_path, edit):
    """A copy of ``made_data`` whose manifest's (columns, rows) are ``edit``-ed."""
    data = tmp_path / "data"
    shutil.copytree(made_data, data)
    with open(data / "manifest.csv", newline="") as f:
        reader = csv.DictReader(f)
        fields, rows = edit(reader.fieldnames, list(reader))
    with open(data / "manifest.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return data


@pytest.mark.parametrize("case", ["missing_column", "params_not_json"])
def test_malformed_manifest_exits_6_naming_the_line(tmp_path, capsys, made_data, case):
    if case == "missing_column":
        line, edit = 1, lambda fields, rows: ([c for c in fields if c != "params"], rows)
    else:
        line, edit = 47, lambda fields, rows: (fields, rows[:-1] + [{**rows[-1], "params": "{"}])
    data = _data_with_manifest(made_data, tmp_path, edit)
    out = tmp_path / "x"
    assert run_cli("evaluate", "--out", out, *TINY, "--set", f"data_dir={data}") == 6
    err = capsys.readouterr().err
    assert f"{data / 'manifest.csv'}: line {line}:" in err and "Traceback" not in err
    assert not (out / "run.log").exists()


@pytest.mark.parametrize("key, value", [("radius", None), ("fg_value", "bright"),
                                        ("cx", float("nan")), ("size", True), ("size", 0)])
def test_manifest_params_without_a_scene_number_exit_6_before_training(
        tmp_path, capsys, made_data, key, value):
    def edit(fields, rows):
        params = json.loads(rows[0]["params"])
        if value is None:
            del params[key]
        else:
            params[key] = value
        return fields, [{**rows[0], "params": json.dumps(params)}] + rows[1:]

    data = _data_with_manifest(made_data, tmp_path, edit)
    out = tmp_path / "x"
    code = run_cli("train-denoiser", "--out", out, *TINY, "--set", "denoiser=trainable",
                   "--set", f"data_dir={data}")
    assert code == 6
    err = capsys.readouterr().err
    assert f"{data / 'manifest.csv'}: line 2: params {key} " in err and "Traceback" not in err
    assert not (out / "run.log").exists() and not (out / "models").exists()


def test_manifest_cut_inside_its_header_exits_6(tmp_path, capsys, made_data):
    data = tmp_path / "data"
    shutil.copytree(made_data, data)
    manifest = data / "manifest.csv"
    manifest.write_bytes(manifest.read_bytes()[:20])
    assert run_cli("evaluate", "--out", tmp_path / "x", *TINY, "--set", f"data_dir={data}") == 6
    err = capsys.readouterr().err
    assert f"{manifest}: line 1: header is not " in err and "Traceback" not in err


def test_non_utf8_manifest_exits_6_naming_the_file(tmp_path, capsys, made_data):
    data = tmp_path / "data"
    shutil.copytree(made_data, data)
    manifest = data / "manifest.csv"
    manifest.write_bytes(manifest.read_bytes().replace(b"test", b"t\xe9st", 1))
    assert run_cli("evaluate", "--out", tmp_path / "x", *TINY, "--set", f"data_dir={data}") == 6
    err = capsys.readouterr().err
    assert f"{manifest}: not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("command, split", [("train-denoiser", "train"),
                                            ("train-segmenter", "train"), ("evaluate", "test"),
                                            ("augment", "test")])
def test_empty_data_dir_split_exits_3_before_training(tmp_path, capsys, made_data, command,
                                                      split):
    data = _data_with_manifest(made_data, tmp_path, lambda fields, rows: (
        fields, [r for r in rows if r["split"] != split]))
    out = tmp_path / "x"
    assert run_cli(command, "--out", out, *TINY, "--set", f"data_dir={data}") == 3
    err = capsys.readouterr().err
    assert f"lists no {split} scenes" in err and "Traceback" not in err
    assert not (out / "run.log").exists() and not (out / "models").exists()


def test_truncated_scene_file_exit_6(tmp_path, capsys):
    out = tmp_path / "data_run"
    assert run_cli("make-data", "--out", out, "--seed", 1, *TINY) == 0
    scene = out / "data" / "test" / "scene_0000.f64"
    scene.write_bytes(scene.read_bytes()[:10])
    code = run_cli("evaluate", "--out", tmp_path / "x", *TINY,
                   "--set", "segmenter=threshold", "--set", f"data_dir={out / 'data'}")
    assert code == 6
    err = capsys.readouterr().err
    assert "scene_0000.f64" in err and "Traceback" not in err


@pytest.mark.parametrize("role, value", [("scene", np.nan), ("gt", np.inf),
                                         ("semantic", -np.inf)])
def test_non_finite_grid_file_exits_6_before_training(tmp_path, capsys, made_data, role, value):
    data = tmp_path / "data"
    shutil.copytree(made_data, data)
    semantic = tmp_path / "semantic.f64"
    gridio.save_grid(semantic, np.zeros((1, 64)))
    path = {"scene": data / "test" / "scene_0000.f64", "gt": data / "test" / "gt_0000.f64",
            "semantic": semantic}[role]
    raw = path.read_bytes()
    path.write_bytes(raw[:16] + struct.pack("<d", value) + raw[24:])
    out = tmp_path / "x"
    assert run_cli("evaluate", "--out", out, *TINY, "--set", f"data_dir={data}",
                   "--set", f"semantic_embedding={semantic}") == 6
    err = capsys.readouterr().err
    assert path.name in err and "non-finite values" in err and "Traceback" not in err
    assert not (out / "run.log").exists()


def test_grid_path_that_is_a_directory_exits_2_before_training(tmp_path, capsys, made_data):
    data = tmp_path / "data"
    shutil.copytree(made_data, data)
    scene = data / "test" / "scene_0000.f64"
    scene.unlink()
    scene.mkdir()
    out = tmp_path / "x"
    assert run_cli("evaluate", "--out", out, *TINY, "--set", f"data_dir={data}") == 2
    err = capsys.readouterr().err
    assert str(scene) in err and "Traceback" not in err
    assert not (out / "run.log").exists()


@pytest.mark.parametrize("role, channels", [("semantic", 2), ("scene", 3)])
def test_grid_of_several_channels_exits_6_before_training(tmp_path, capsys, made_data, role,
                                                          channels):
    data = tmp_path / "data"
    shutil.copytree(made_data, data)
    semantic = tmp_path / "semantic.f64"
    gridio.save_grid(semantic, np.zeros((1, 64)))
    path, h, w = {"semantic": (semantic, 1, 32),
                  "scene": (data / "test" / "scene_0000.f64", 24, 24)}[role]
    path.write_bytes(struct.pack("<4sIII", b"TTGA", h, w, channels)
                     + np.full(h * w * channels, 0.5).tobytes())
    out = tmp_path / "x"
    assert run_cli("evaluate", "--out", out, *TINY, "--set", f"data_dir={data}",
                   "--set", f"semantic_embedding={semantic}") == 6
    err = capsys.readouterr().err
    assert f"{path}: {channels} channels, not 1" in err and "Traceback" not in err
    assert not (out / "run.log").exists()


def test_evaluate_reads_data_made_from_another_directory(tmp_path, monkeypatch):
    """make-data writes paths relative to where it ran; evaluate finds the
    files under data_dir from any directory, with the same bytes."""
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "a")
    assert run_cli("make-data", "--out", "d16", "--seed", 4, *TINY) == 0
    data_dir = tmp_path / "a" / "d16" / "data"
    evaluate = ("evaluate", "--seed", 4, *TINY, "--set", "segmenter=threshold",
                "--set", f"data_dir={data_dir}")
    assert run_cli(*evaluate, "--out", tmp_path / "here") == 0
    monkeypatch.chdir(tmp_path / "b")
    assert run_cli(*evaluate, "--out", tmp_path / "there") == 0
    assert (read_text(tmp_path / "there" / "eval" / "per_image.csv")
            == read_text(tmp_path / "here" / "eval" / "per_image.csv"))


def test_data_of_another_size_exits_3_before_training(tmp_path, capsys):
    data = tmp_path / "d16"
    assert run_cli("make-data", "--out", data, "--seed", 4, *TINY, "--set", "size=16") == 0
    out = tmp_path / "x"
    assert run_cli("evaluate", "--out", out, *TINY, "--set", f"data_dir={data / 'data'}") == 3
    err = capsys.readouterr().err
    assert "scene_0000.f64" in err and "size 24" in err and "Traceback" not in err
    assert not (out / "run.log").exists()


def test_nulltext_trace_emitted_in_augment(tmp_path):
    out = tmp_path / "trace_run"
    assert run_cli("augment", "--out", out, "--seed", 2, "--count", 1, *TINY,
                   "--set", "nulltext_trace=true",
                   "--set", "segmenter=threshold") == 0
    trace = out / "augment" / "nulltext_trace_0000.csv"
    assert trace.exists()
    with open(trace, newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["iteration"] == "0"
    assert float(rows[-1]["loss"]) <= float(rows[0]["loss"])


def test_augment_trace_csv_holds_the_optimization_trace(tmp_path, monkeypatch):
    sets = []
    ttga_set = pipeline.ttga_set
    monkeypatch.setattr(pipeline, "ttga_set", lambda *a: sets.append(ttga_set(*a)) or sets[-1])
    out = tmp_path / "trace_run"
    assert run_cli("augment", "--out", out, "--seed", 2, "--count", 2, *TINY,
                   "--set", "nulltext_trace=true", "--set", "segmenter=threshold") == 0
    assert len(sets) == 2
    for i, aset in enumerate(sets):
        want = "iteration,loss\r\n" + "".join(
            f"{it},{loss:.12e}\r\n" for it, loss in enumerate(aset.null_opt.trace))
        assert read_text(out / "augment" / f"nulltext_trace_{i:04d}.csv") == want.encode()
