import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttga import gridio, pipeline
from ttga.cli import main
from ttga.errors import ConfigError
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
    "inversion_interval=0", "data_std=0", "size=0", "seg_epochs=0", "tta_views=0",
    "n_augment=0", "club_stride=0", "lambda_r_low=2", "invert_with=foo",
    "nulltext_lr=nan", "nulltext_max_steps=-5", "nulltext_early_stop=nan", "beta_end=0.9",
    "test_blur=nan", "train_noise=nan", "test_occlusion=2", "train_occlusion=-1",
    "tta_jitter=nan", "tta_jitter=-1",
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
    "empty": lambda text: "",
    "non_numeric_cell": lambda text: text.replace(text.splitlines()[1].split(",")[2], "high", 1),
    "short_row": lambda text: text + "ttga,segmentation,0.5\n",
}


@pytest.mark.parametrize("case", list(MALFORMED_AGGREGATES))
def test_compare_malformed_aggregate_exits_5_naming_the_file(tmp_path, capsys, pipeline_run, case):
    text = (pipeline_run / "eval" / "aggregate.csv").read_text()
    bad = tmp_path / "bad" / "eval" / "aggregate.csv"
    bad.parent.mkdir(parents=True)
    bad.write_text(MALFORMED_AGGREGATES[case](text))
    assert run_cli("compare-report", pipeline_run, bad.parent.parent,
                   "--out", tmp_path / "cmp.csv") == 5
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    assert not (tmp_path / "cmp.csv").exists()


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
    assert (pipeline_run / "run.log").read_text().count("-") >= 2


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
    missing = tmp_path / "absent"
    assert run_cli("evaluate", "--out", tmp_path / "x", *TINY,
                   "--set", f"{field}={missing}") == 2
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["denoiser_checkpoint", "segmenter_checkpoint"])
def test_truncated_checkpoint_exit_6(tmp_path, capsys, field):
    ckpt = tmp_path / "short.ckpt"
    ckpt.write_bytes(b"TTGM\x01\x00\x00\x00\x00\x00")
    code = run_cli("evaluate", "--out", tmp_path / "x", *TINY,
                   "--set", "segmenter=threshold", "--set", f"{field}={ckpt}")
    assert code == 6
    err = capsys.readouterr().err
    assert "corrupt checkpoint" in err and "Traceback" not in err


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
