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
        "ttga_s_per_image", "(lower)", "0.2", "[0.2,", "0.2]", "0.1", "-50.0%", "3/3"]
