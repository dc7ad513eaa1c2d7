import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

METRICS = [{"name": "ttga_s_per_image", "better": "lower"},
           {"name": "images_per_s", "better": "higher"},
           {"name": "tta_s_per_image", "better": "lower"}]


class FakeRunner:
    """Stands in for subprocess.run: records each command and answers with
    the stdout that ``answer(tree, seed)`` gives."""

    def __init__(self, answer, returncode=0):
        self.answer, self.returncode, self.calls = answer, returncode, []

    def __call__(self, cmd, capture_output, text):
        assert capture_output and text
        assert cmd[0] == sys.executable and cmd[1].endswith("/perfbench/run.py")
        tree = Path(cmd[1]).parent.parent.name
        args = dict(zip(cmd[2::2], cmd[3::2]))
        assert "--trace" not in args
        self.calls.append((tree, args["--workload"], int(args["--seed"]), float(args["--seconds"])))
        return SimpleNamespace(returncode=self.returncode, stderr="",
                               stdout=self.answer(tree, int(args["--seed"])))


def result_line(metrics, correct=True, failed=0):
    return "setting up\n" + json.dumps({
        "correct": correct, "attempted": 5, "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}) + "\n"


def fake_compare(runner, pairs, seed=5):
    def run(tree, workload, s, seconds):
        return bench_record.run_perfbench(tree, workload, s, seconds, runner=runner)
    return bench_record.compare(Path("/trees/base"), Path("/trees/head"), "eval-conv",
                                pairs, seed, 2.5, run=run)


def test_pairs_share_a_seed_and_alternate_which_tree_runs_first():
    runner = FakeRunner(lambda tree, seed: result_line({"ttga_s_per_image": seed}))
    results = fake_compare(runner, pairs=4)
    assert runner.calls == [
        ("base", "eval-conv", 5, 2.5), ("head", "eval-conv", 5, 2.5),
        ("head", "eval-conv", 6, 2.5), ("base", "eval-conv", 6, 2.5),
        ("base", "eval-conv", 7, 2.5), ("head", "eval-conv", 7, 2.5),
        ("head", "eval-conv", 8, 2.5), ("base", "eval-conv", 8, 2.5)]
    assert [(b["ttga_s_per_image"], h["ttga_s_per_image"]) for b, h in results] == [
        (5, 5), (6, 6), (7, 7), (8, 8)]


def test_summary_counts_head_wins_in_each_metrics_direction():
    # HEAD is faster per image in pairs 0, 1 and 3, and has the higher
    # throughput in pair 2 only; tta_s_per_image ties everywhere
    ttga = {"base": [0.20, 0.21, 0.19, 0.22], "head": [0.18, 0.19, 0.20, 0.20]}
    ips = {"base": [4.0, 4.0, 4.0, 4.0], "head": [3.9, 3.8, 4.2, 4.0]}

    def answer(tree, seed):
        i = seed - 5
        return result_line({"ttga_s_per_image": ttga[tree][i], "images_per_s": ips[tree][i],
                            "tta_s_per_image": 0.008})

    rows = {r["name"]: r for r in bench_record.summarize(fake_compare(FakeRunner(answer), 4),
                                                         METRICS)}
    assert rows["ttga_s_per_image"]["wins"] == 3
    assert rows["ttga_s_per_image"]["base_median"] == pytest.approx(0.205)
    assert rows["ttga_s_per_image"]["head_median"] == pytest.approx(0.195)
    assert rows["ttga_s_per_image"]["change"] == pytest.approx(-0.01 / 0.205)
    assert (rows["ttga_s_per_image"]["base_q1"], rows["ttga_s_per_image"]["base_q3"]) == (
        pytest.approx(0.1975), pytest.approx(0.2125))
    assert rows["images_per_s"]["wins"] == 1
    assert rows["tta_s_per_image"]["wins"] == 0 and rows["tta_s_per_image"]["change"] == 0
    text = bench_record.format_rows("eval-conv", list(rows.values()))
    assert "ttga_s_per_image (lower)" in text and "-4.9%" in text and "3/4" in text


def test_a_metric_missing_from_a_run_is_left_out():
    def answer(tree, seed):
        return result_line({"ttga_s_per_image": 0.2, **({"images_per_s": 4.0}
                                                         if tree == "base" else {})})
    rows = bench_record.summarize(fake_compare(FakeRunner(answer), 2), METRICS)
    assert [r["name"] for r in rows] == ["ttga_s_per_image"]


@pytest.mark.parametrize("stdout, returncode, message", [
    (result_line({"ttga_s_per_image": 0.2}, correct=False), 0, "correct False"),
    (result_line({"ttga_s_per_image": 0.2}, failed=1), 0, "failed 1"),
    ("error: ttga sources not found\n", 2, "no JSON result line"),
    ("", 0, "no JSON result line"),
    (result_line({"ttga_s_per_image": 0.2}), 1, "exit code 1"),
])
def test_a_failed_run_stops_the_comparison(stdout, returncode, message):
    runner = FakeRunner(lambda tree, seed: stdout, returncode)
    with pytest.raises(bench_record.RunFailed, match=message):
        fake_compare(runner, pairs=3)
    assert len(runner.calls) == 1


def test_cli_reports_a_failed_run_with_exit_code_1(tmp_path, capsys):
    """Each tree's run.py prints a result whose check failed."""
    for tree in ("base", "head"):
        (tmp_path / tree / "perfbench").mkdir(parents=True)
        (tmp_path / tree / "perfbench" / "run.py").write_text(
            f"print({result_line({'ttga_s_per_image': 0.2}, correct=False)!r})")
    assert bench_record.main(["--compare", str(tmp_path / "base"), str(tmp_path / "head"),
                              "--workload", "train", "--seconds", "1"]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'base'} train seed 1: exit code 0, correct False, failed 0" in err


def test_cli_prints_each_end_to_end_metric_the_runs_report(tmp_path, capsys):
    for tree, seconds in (("base", 0.2), ("head", 0.1)):
        (tmp_path / tree / "perfbench").mkdir(parents=True)
        (tmp_path / tree / "perfbench" / "run.py").write_text(
            f"print({result_line({'ttga_s_per_image': seconds, 'not_end_to_end': 1.0})!r})")
    assert bench_record.main(["--compare", str(tmp_path / "base"), str(tmp_path / "head"),
                              "--workload", "eval-conv", "--pairs", "3", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "eval-conv: 3 alternating pairs"
    assert len(lines) == 3 and lines[2].split() == [
        "ttga_s_per_image", "(lower)", "0.2", "[0.2,", "0.2]", "0.1", "-50.0%", "3/3", "gain"]


BOUNDED = [{"name": "ttga_s_per_image", "better": "lower", "bound": 0.25},
           {"name": "images_per_s", "better": "higher", "bound": 0.25},
           {"name": "tta_s_per_image", "better": "lower", "bound": 0.25},
           {"name": "ttga_dsc", "better": "higher", "bound": 0.15},
           {"name": "setup_s", "better": "lower"}]


def test_verdicts_follow_the_pair_count_the_base_spread_and_the_bound():
    base_s = [0.100, 0.102, 0.098, 0.101, 0.099, 0.100, 0.103, 0.097, 0.100, 0.101]

    def answer(tree, seed):
        i = seed - 5
        if tree == "base":
            return result_line({"ttga_s_per_image": base_s[i], "images_per_s": 10.0,
                                "tta_s_per_image": base_s[i], "ttga_dsc": 80.0,
                                "setup_s": 1.0})
        return result_line({
            # faster in 9 of 10 pairs by more than BASE's spread: a gain
            "ttga_s_per_image": base_s[i] - 0.01 if i else base_s[i] + 0.001,
            # 30% lower throughput, past the 25% bound: worse
            "images_per_s": 7.0,
            # faster in every pair, but by less than BASE's spread: unresolved
            "tta_s_per_image": base_s[i] - 0.0005,
            # 10% lower, within the 15% bound: unresolved
            "ttga_dsc": 72.0,
            # twice as slow, but with no bound it cannot be worse
            "setup_s": 2.0,
        })

    rows = {r["name"]: r for r in bench_record.summarize(fake_compare(FakeRunner(answer), 10),
                                                         BOUNDED)}
    assert rows["ttga_s_per_image"]["wins"] == 9
    assert {name: r["verdict"] for name, r in rows.items()} == {
        "ttga_s_per_image": "gain", "images_per_s": "worse", "tta_s_per_image": "unresolved",
        "ttga_dsc": "unresolved", "setup_s": "unresolved"}
    lines = bench_record.format_rows("eval-analytic", list(rows.values())).splitlines()
    assert lines[1].split()[-1] == "verdict"
    assert [line.split()[-2:] for line in lines[2:]] == [
        ["9/10", "gain"], ["0/10", "worse"], ["10/10", "unresolved"], ["0/10", "unresolved"],
        ["0/10", "unresolved"]]


def test_eight_wins_in_ten_pairs_is_no_gain():
    def answer(tree, seed):
        slower = seed - 5 < 2
        return result_line({"ttga_s_per_image": 0.1 if tree == "base" or slower else 0.05})
    rows = bench_record.summarize(fake_compare(FakeRunner(answer), 10), BOUNDED)
    assert (rows[0]["wins"], rows[0]["verdict"]) == (8, "unresolved")


# ---- --record ----

BENCH = {"end_to_end": [dict(m, unit="s") for m in METRICS[:2]],
         "per_layer": [{"name": "host.reference_s", "unit": "s", "better": "lower"}]}


class RecordRunner:
    """Stands in for subprocess.run in a recording: an untraced run reports
    ``answer(seed)``, a traced one fixed per-layer figures."""

    def __init__(self, answer):
        self.answer, self.calls = answer, []

    def __call__(self, cmd, capture_output, text):
        args = dict(zip(cmd[2::2], cmd[3::2]))
        traced = args.get("--trace") == "1"
        seed = int(args["--seed"])
        self.calls.append((args["--workload"], seed, traced))
        stdout = result_line({"host.reference_s": 0.012, "masks.make_mask_calls": 40}
                             if traced else self.answer(seed))
        return SimpleNamespace(returncode=0, stderr="", stdout=stdout)


def fake_record(runner, workloads=("eval-conv",), runs=5, seed=3):
    def run(tree, workload, s, seconds, trace=False):
        return bench_record.run_perfbench(tree, workload, s, seconds, runner=runner, trace=trace)
    return bench_record.record(Path("/trees/head"), list(workloads), runs, seed, 2.5, BENCH,
                               run=run)


def test_record_runs_k_untraced_seeds_then_one_traced_run_per_workload():
    runner = RecordRunner(lambda seed: {"ttga_s_per_image": 0.1 * seed, "images_per_s": 2.0})
    out = fake_record(runner, workloads=("eval-conv", "train"), runs=3)
    assert runner.calls == [(w, s, False) for s in (3, 4, 5) for w in ("eval-conv",)] + [
        ("eval-conv", 3, True)] + [("train", s, False) for s in (3, 4, 5)] + [("train", 3, True)]
    ttga = out["eval-conv"]["end_to_end"]["ttga_s_per_image"]
    assert ttga == dict(median=pytest.approx(0.4), q1=pytest.approx(0.35),
                        q3=pytest.approx(0.45), n=3, unit="s", better="lower")
    assert out["train"]["end_to_end"]["images_per_s"]["median"] == 2.0
    assert out["eval-conv"]["per_layer"] == {
        "host.reference_s": {"value": 0.012, "unit": "s"},
        "masks.make_mask_calls": {"value": 40, "unit": None}}


def test_record_leaves_out_a_metric_one_run_lacks():
    runner = RecordRunner(lambda seed: {"ttga_s_per_image": 0.2,
                                        **({"images_per_s": 4.0} if seed != 4 else {})})
    assert list(fake_record(runner)["eval-conv"]["end_to_end"]) == ["ttga_s_per_image"]


@pytest.mark.parametrize("bad", [dict(correct=False), dict(failed=2)])
@pytest.mark.parametrize("traced", [False, True])
def test_a_failed_run_stops_the_recording(bad, traced):
    def runner(cmd, capture_output, text):
        is_traced = "--trace" in cmd
        return SimpleNamespace(returncode=0, stderr="", stdout=result_line(
            {"ttga_s_per_image": 0.2}, **(bad if is_traced == traced else {})))
    with pytest.raises(bench_record.RunFailed, match="traced" if traced else "seed 3:"):
        fake_record(runner, runs=2)


def test_record_and_compare_are_exclusive_and_one_is_required(capsys):
    for argv in ([], ["--record", "b.json", "--compare", "a", "b"]):
        with pytest.raises(SystemExit) as exc:
            bench_record.main(argv)
        assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_cli_records_this_trees_figures(tmp_path, monkeypatch, capsys):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text((bench_record.ROOT / "BENCHMARK.json").read_text())
    (tree / "perfbench" / "run.py").write_text(
        "import sys\n"
        f"print({result_line({'ttga_s_per_image': 0.25})!r} if '--trace' not in sys.argv "
        f"else {result_line({'host.reference_s': 0.01})!r})")
    monkeypatch.setattr(bench_record, "ROOT", tree)
    out = tmp_path / "BENCH_ttga.json"
    assert bench_record.main(["--record", str(out), "--workload", "train", "--seconds", "1"]) == 0
    got = json.loads(out.read_text())
    assert got["runs"] == bench_record.RUNS and got["seed"] == 1
    assert set(got) >= {"revision", "python", "numpy", "scipy", "blas_threads", "modified"}
    assert set(got["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS"}
    train = got["workloads"]["train"]
    assert train["end_to_end"]["ttga_s_per_image"]["median"] == 0.25
    assert train["per_layer"]["host.reference_s"] == {"value": 0.01, "unit": "s"}
    assert capsys.readouterr().out == f"wrote {out}\n"
