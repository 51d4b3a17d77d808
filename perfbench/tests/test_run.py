"""The benchmark's own tests: harness, output checks and result schema at toy sizes.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import Bench
from spans import SITES, Tracer
from workloads import ACCURACY_FLOOR, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and not isinstance(entry["value"], bool)
    if not trace:
        for name in ("wall_s", "setup_s", "peak_rss_mb", "planted_hit_rate", "ops_ok_ratio"):
            assert result["metrics"][name]["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "rank-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _bench(tmp_path, name):
    bench = Bench(WORKLOADS[name], seed=3, seconds=0, smoke=True, work=tmp_path)
    bench.setup_round()
    return bench


def _write_scores(bench, out, order, score):
    ds = bench.inputs.dataset
    out.mkdir()
    with open(out / "scores.csv", "w", encoding="utf-8") as fh:
        fh.write("feature_id,name,score,rank\n")
        for rank, fid in enumerate(order, start=1):
            fh.write(f"{fid},{ds.descriptors[fid].name},{score(rank)!r},{rank}\n")


def test_checks_flag_a_wrong_ranking_and_a_low_accuracy(tmp_path):
    bench = _bench(tmp_path, "rank-cold")
    noise = [j for j in range(bench.inputs.dataset.m) if j not in bench.inputs.planted]
    out = tmp_path / "fake"
    _write_scores(bench, out, noise + sorted(bench.inputs.planted), lambda rank: 1.0 / rank)
    (out / "results.json").write_text(json.dumps({"accuracy": ACCURACY_FLOOR / 2}))
    quality = bench._quality("fake", out)
    assert quality["planted_hit_rate"] < 1.0
    assert set(bench.ledger.problems) == {"fake/0", "fake/1"}


def test_checks_flag_planted_features_that_come_first_only_by_a_tie(tmp_path):
    bench = _bench(tmp_path, "rank-cold")
    noise = [j for j in range(bench.inputs.dataset.m) if j not in bench.inputs.planted]
    out = tmp_path / "fake"
    _write_scores(bench, out, sorted(bench.inputs.planted) + noise, lambda rank: 0.0)
    (out / "results.json").write_text(json.dumps({"accuracy": 1.0}))
    bench._quality("fake", out)
    assert set(bench.ledger.problems) == {"fake/0"}


def test_checks_flag_a_selection_that_misses_the_planted_set(tmp_path):
    bench = _bench(tmp_path, "select-sweep")
    ds = bench.inputs.dataset
    picked = sorted(bench.inputs.planted)[1:]
    for penalty in WORKLOADS["select-sweep"].penalties:
        out = tmp_path / "fake" / penalty
        out.mkdir(parents=True)
        with open(out / "alpha.csv", "w", encoding="utf-8") as fh:
            fh.write("feature_id,name,alpha\n")
            for d in ds.descriptors:
                fh.write(f"{d.id},{d.name},{0.5 if d.id in picked else 0.0!r}\n")
        (out / "results.json").write_text(json.dumps({"accuracy": 1.0}))
    bench._quality("fake", tmp_path / "fake")
    assert set(bench.ledger.problems) == {"fake/0", "fake/2"}


def test_tracer_restores_every_wrapped_name():
    import importlib

    before = {(mod, name): getattr(importlib.import_module(mod), name)
              for mod, names in SITES for name in names}
    with Tracer().installed():
        assert all(getattr(importlib.import_module(mod), name) is not fn
                   for (mod, name), fn in before.items())
    assert all(getattr(importlib.import_module(mod), name) is fn
               for (mod, name), fn in before.items())


def test_end_to_end_scales_times_by_the_10th_percentile_calibration_pass(tmp_path):
    from run import REFERENCE_PASS_S

    bench = Bench(WORKLOADS["rank-cold"], seed=3, seconds=0, smoke=True, work=tmp_path)
    # The 10th-percentile pass takes twice the reference: the machine ran at half speed.
    bench.passes = [REFERENCE_PASS_S] + [2 * REFERENCE_PASS_S] * 19 + [9 * REFERENCE_PASS_S]
    bench.setup_times = [3.0, 1.0, 2.0]
    reps = [{"seconds": 6.0, "peak_rss_mb": 1.0}, {"seconds": 4.0, "peak_rss_mb": 3.0}]
    metrics = bench.end_to_end(reps)
    assert metrics["wall_s"] == pytest.approx(4.0 / 2)
    assert metrics["setup_s"] == pytest.approx(2.0 / 2)
    assert metrics["peak_rss_mb"] == 2.0
