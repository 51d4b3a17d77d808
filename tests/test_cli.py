import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mts_select.cli import main
from mts_select.dataset import load_dataset, write_dataset
from mts_select.errors import ConsistencyError

from conftest import make_dataset


def run(*argv):
    return main(list(argv))


def gen_args(out, n=24, classes=2, informative=2, noise=2, seed=1, duplicate=None):
    argv = [
        "gen-synthetic", "--n", str(n), "--classes", str(classes),
        "--informative", str(informative), "--noise", str(noise),
        "--seed", str(seed), "--out", str(out),
    ]
    if duplicate is not None:
        argv += ["--duplicate", str(duplicate)]
    return argv


def read_bytes(path):
    return path.read_bytes()


class TestGenSynthetic:
    def test_generates_loadable_dataset(self, tmp_path):
        assert run(*gen_args(tmp_path / "d", n=60, classes=3, informative=5, noise=15)) == 0
        ds = load_dataset(tmp_path / "d")
        assert ds.n == 60 and ds.m == 20
        assert len(ds.classes) == 3

    def test_duplicate_flag_copies_bit_identically(self, tmp_path):
        assert run(*gen_args(tmp_path / "d", duplicate=0)) == 0
        ds = load_dataset(tmp_path / "d")
        assert ds.m == 5
        for seg in ds.segments:
            np.testing.assert_array_equal(seg.values[0], seg.values[4])

    def test_same_seed_same_files(self, tmp_path):
        run(*gen_args(tmp_path / "a"))
        run(*gen_args(tmp_path / "b"))
        for name in ("meta.json", "labels.csv", "values/sig0.csv", "values/noise1.csv"):
            assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)


class TestRankCommand:
    def test_rank_twice_is_byte_identical(self, tmp_path):
        run(*gen_args(tmp_path / "d"))
        for out in ("r1", "r2"):
            code = run("rank", "--data", str(tmp_path / "d"), "--knn", "5",
                       "--seed", "1", "--out", str(tmp_path / out),
                       "--cache-dir", str(tmp_path / out / "cache"))
            assert code == 0
        assert read_bytes(tmp_path / "r1/scores.csv") == read_bytes(tmp_path / "r2/scores.csv")

    def test_thread_count_does_not_change_results(self, tmp_path):
        run(*gen_args(tmp_path / "d"))
        for out, threads in (("t1", "1"), ("t4", "4")):
            run("rank", "--data", str(tmp_path / "d"), "--knn", "5", "--seed", "1",
                "--threads", threads, "--out", str(tmp_path / out),
                "--cache-dir", str(tmp_path / out / "cache"))
        assert read_bytes(tmp_path / "t1/scores.csv") == read_bytes(tmp_path / "t4/scores.csv")

    def test_run_config_echoed(self, tmp_path):
        run(*gen_args(tmp_path / "d"))
        run("rank", "--data", str(tmp_path / "d"), "--knn", "5", "--seed", "3",
            "--out", str(tmp_path / "r"))
        config = json.loads((tmp_path / "r/run.json").read_text())
        assert config["command"] == "rank"
        assert config["knn"] == 5 and config["seed"] == 3 and config["threads"] == 1

    def test_scores_csv_format(self, tmp_path):
        run(*gen_args(tmp_path / "d"))
        run("rank", "--data", str(tmp_path / "d"), "--knn", "5", "--seed", "1",
            "--out", str(tmp_path / "r"))
        lines = (tmp_path / "r/scores.csv").read_text().splitlines()
        assert lines[0] == "feature_id,name,score,rank"
        assert len(lines) == 5
        ranks = [int(line.split(",")[3]) for line in lines[1:]]
        assert ranks == [1, 2, 3, 4]


class TestSelectCommand:
    def test_select_outputs(self, tmp_path):
        run(*gen_args(tmp_path / "d"))
        code = run("select", "--data", str(tmp_path / "d"), "--knn", "5",
                   "--target-size", "2", "--penalty", "mi", "--seed", "1",
                   "--out", str(tmp_path / "s"))
        assert code == 0
        lines = (tmp_path / "s/alpha.csv").read_text().splitlines()
        assert lines[0] == "feature_id,name,alpha"
        assert len(lines) == 5
        meta = json.loads((tmp_path / "s/alpha_meta.json").read_text())
        assert set(meta) == {"lambda", "beta", "gamma", "penalty_kind",
                             "sweeps_used", "final_objective", "converged"}
        assert meta["penalty_kind"] == "mi" and meta["beta"] == 1.0

    def test_nystrom_flag(self, tmp_path):
        run(*gen_args(tmp_path / "d"))
        code = run("select", "--data", str(tmp_path / "d"), "--knn", "5", "--lambda", "0.1",
                   "--nystrom", "2", "--penalty", "mi", "--seed", "1",
                   "--out", str(tmp_path / "s"))
        assert code == 0
        assert (tmp_path / "s/alpha.csv").is_file()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_minimal_two_segment_dataset(self, tmp_path):
        # Smallest legal dataset: two segments, two classes; k clamps to 1.
        run(*gen_args(tmp_path / "d", n=4, classes=2, informative=1, noise=0))
        code = run("rank", "--data", str(tmp_path / "d"), "--knn", "5", "--seed", "1",
                   "--out", str(tmp_path / "r"))
        assert code == 0
        lines = (tmp_path / "r/scores.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_dump_redundancy(self, tmp_path):
        run(*gen_args(tmp_path / "d"))
        run("select", "--data", str(tmp_path / "d"), "--knn", "5", "--lambda", "0.1",
            "--seed", "1", "--out", str(tmp_path / "s"), "--dump-redundancy")
        rows = (tmp_path / "s/redundancy.csv").read_text().splitlines()
        assert len(rows) == 4 and len(rows[0].split(",")) == 4

    def test_lambda_and_target_size_exclusive(self, tmp_path, capsys):
        run(*gen_args(tmp_path / "d"))
        code = run("select", "--data", str(tmp_path / "d"), "--lambda", "0.1",
                   "--target-size", "2", "--out", str(tmp_path / "s"))
        assert code == 1
        assert "usage" in capsys.readouterr().err


class TestEvalCommand:
    def build_pipeline(self, tmp_path, weighted=False):
        run(*gen_args(tmp_path / "d", n=30, classes=2, informative=2, noise=2))
        cache = str(tmp_path / "cache")
        run("select", "--data", str(tmp_path / "d"), "--knn", "5", "--target-size", "2",
            "--penalty", "mi", "--seed", "1", "--train-fraction", "0.67",
            "--out", str(tmp_path / "s"), "--cache-dir", cache)
        argv = ["eval", "--data", str(tmp_path / "d"),
                "--subset", str(tmp_path / "s/alpha.csv"),
                "--seed", "1", "--train-fraction", "0.67",
                "--out", str(tmp_path / "results.json"), "--cache-dir", cache]
        if weighted:
            argv.append("--weighted")
        return run(*argv)

    def test_eval_results_schema(self, tmp_path):
        assert self.build_pipeline(tmp_path) == 0
        results = json.loads((tmp_path / "results.json").read_text())
        assert set(results) == {"accuracy", "n_selected", "selected_ids", "weighted"}
        assert 0.0 <= results["accuracy"] <= 1.0
        assert results["weighted"] is False
        assert results["n_selected"] == len(results["selected_ids"])

    def test_weighted_flag_recorded(self, tmp_path):
        assert self.build_pipeline(tmp_path, weighted=True) == 0
        assert json.loads((tmp_path / "results.json").read_text())["weighted"] is True

    def test_eval_requires_split(self, tmp_path, capsys):
        run(*gen_args(tmp_path / "d"))
        run("rank", "--data", str(tmp_path / "d"), "--knn", "5", "--seed", "1",
            "--out", str(tmp_path / "r"))
        code = run("eval", "--data", str(tmp_path / "d"),
                   "--subset", str(tmp_path / "r/scores.csv"), "--top", "2",
                   "--out", str(tmp_path / "results.json"))
        assert code == 1
        assert "test split" in capsys.readouterr().err

    def test_scores_subset_needs_top(self, tmp_path, capsys):
        run(*gen_args(tmp_path / "d"))
        run("rank", "--data", str(tmp_path / "d"), "--knn", "5", "--seed", "1",
            "--out", str(tmp_path / "r"))
        code = run("eval", "--data", str(tmp_path / "d"), "--train-fraction", "0.67",
                   "--seed", "1", "--subset", str(tmp_path / "r/scores.csv"),
                   "--out", str(tmp_path / "results.json"))
        assert code == 1
        assert "--top" in capsys.readouterr().err

    def test_graphs_aggregation_mode(self, tmp_path):
        run(*gen_args(tmp_path / "d", n=30))
        run("rank", "--data", str(tmp_path / "d"), "--knn", "5", "--seed", "1",
            "--train-fraction", "0.67", "--out", str(tmp_path / "r"))
        code = run("eval", "--data", str(tmp_path / "d"), "--train-fraction", "0.67",
                   "--seed", "1", "--subset", str(tmp_path / "r/scores.csv"), "--top", "2",
                   "--aggregate", "graphs", "--knn", "5",
                   "--out", str(tmp_path / "results.json"))
        assert code == 0
        assert 0.0 <= json.loads((tmp_path / "results.json").read_text())["accuracy"] <= 1.0


class TestCacheResolution:
    def test_env_var_overrides_default(self, tmp_path, monkeypatch):
        run(*gen_args(tmp_path / "d"))
        monkeypatch.setenv("MTS_SELECT_CACHE", str(tmp_path / "envcache"))
        run("rank", "--data", str(tmp_path / "d"), "--knn", "5", "--seed", "1",
            "--out", str(tmp_path / "r"))
        assert list((tmp_path / "envcache").rglob("M_*.csv"))
        assert not (tmp_path / "r" / "cache").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        run(*gen_args(tmp_path / "d"))
        monkeypatch.setenv("MTS_SELECT_CACHE", str(tmp_path / "envcache"))
        run("rank", "--data", str(tmp_path / "d"), "--knn", "5", "--seed", "1",
            "--out", str(tmp_path / "r"), "--cache-dir", str(tmp_path / "flagcache"))
        assert list((tmp_path / "flagcache").rglob("M_*.csv"))
        assert not (tmp_path / "envcache").exists()


class TestErrorPaths:
    def test_unknown_flag_exits_one(self, capsys):
        assert run("rank", "--no-such-flag") == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_data_dir(self, tmp_path, capsys):
        code = run("rank", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "r"))
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_zero_threads_rejected(self, tmp_path, capsys):
        code = run("rank", "--data", str(tmp_path / "d"), "--threads", "0",
                   "--out", str(tmp_path / "r"))
        assert code == 1
        assert "at least 1" in capsys.readouterr().err

    def test_negative_dtw_window_rejected(self, tmp_path, capsys):
        run(*gen_args(tmp_path / "d"))
        code = run("rank", "--data", str(tmp_path / "d"), "--dtw-window", "-3",
                   "--out", str(tmp_path / "r"))
        assert code == 1
        assert "at least 0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_bad_train_fraction_rejected(self, tmp_path, capsys):
        run(*gen_args(tmp_path / "d"))
        code = run("rank", "--data", str(tmp_path / "d"), "--train-fraction", "1.5",
                   "--out", str(tmp_path / "r"))
        assert code == 1
        assert "train fraction" in capsys.readouterr().err

    def test_consistency_error_exits_two(self, tmp_path, capsys, monkeypatch):
        run(*gen_args(tmp_path / "d"))
        import mts_select.cli as cli_mod

        def boom(*args, **kwargs):
            raise ConsistencyError("objective increased")

        monkeypatch.setattr(cli_mod, "select_features", boom)
        code = run("select", "--data", str(tmp_path / "d"), "--lambda", "0.1",
                   "--out", str(tmp_path / "s"))
        assert code == 2
        assert "internal consistency" in capsys.readouterr().err


class TestRunConfig:
    """run.json holds exactly the keys and values of the earlier hand-written
    configs, dumped with indent=2 and sorted keys, byte for byte."""

    @staticmethod
    def expected_bytes(config):
        return (json.dumps(config, indent=2, sort_keys=True) + "\n").encode("utf-8")

    def test_gen_synthetic(self, tmp_path):
        out = str(tmp_path / "d")
        assert run(*gen_args(out, duplicate=1)) == 0
        assert (tmp_path / "d/run.json").read_bytes() == self.expected_bytes({
            "command": "gen-synthetic", "n": 24, "classes": 2, "informative": 2,
            "noise": 2, "duplicate": [1], "seed": 1, "threads": 1, "out": out,
        })

    def test_rank(self, tmp_path):
        data, out = str(tmp_path / "d"), str(tmp_path / "r")
        run(*gen_args(data))
        assert run("rank", "--data", data, "--knn", "4", "--dtw-window", "3", "--znorm",
                   "--seed", "2", "--threads", "2", "--out", out) == 0
        assert (tmp_path / "r/run.json").read_bytes() == self.expected_bytes({
            "command": "rank", "data": data, "knn": 4, "train_fraction": 1.0,
            "dtw_window": 3, "znorm": True, "seed": 2, "threads": 2,
            "cache_dir": str(tmp_path / "r" / "cache"), "out": out,
        })

    def test_select(self, tmp_path, monkeypatch):
        data, out, cache = str(tmp_path / "d"), str(tmp_path / "s"), str(tmp_path / "env")
        monkeypatch.setenv("MTS_SELECT_CACHE", cache)
        run(*gen_args(data))
        assert run("select", "--data", data, "--knn", "5", "--lambda", "0.5", "--penalty", "mi",
                   "--nystrom", "0", "--dump-redundancy", "--train-fraction", "0.75",
                   "--out", out) == 0
        assert (tmp_path / "s/run.json").read_bytes() == self.expected_bytes({
            "command": "select", "data": data, "knn": 5, "lambda": 0.5, "target_size": None,
            "beta": 1.0, "penalty": "mi", "nystrom": 0, "train_fraction": 0.75,
            "dtw_window": None, "znorm": False, "seed": 0, "threads": 1,
            "cache_dir": cache, "out": out,
        })

    def test_eval(self, tmp_path):
        data, cache = str(tmp_path / "d"), str(tmp_path / "c")
        run(*gen_args(data))
        run("rank", "--data", data, "--knn", "5", "--out", str(tmp_path / "r"), "--cache-dir", cache)
        out = str(tmp_path / "e" / "results.json")
        assert run("eval", "--data", data, "--subset", str(tmp_path / "r/scores.csv"),
                   "--top", "2", "--weighted", "--aggregate", "graphs", "--knn", "3",
                   "--train-fraction", "0.5", "--cache-dir", cache, "--out", out) == 0
        assert (tmp_path / "e/run.json").read_bytes() == self.expected_bytes({
            "command": "eval", "data": data, "subset": str(tmp_path / "r/scores.csv"),
            "top": 2, "weighted": True, "aggregate": "graphs", "knn": 3,
            "train_fraction": 0.5, "dtw_window": None, "znorm": False, "seed": 0,
            "threads": 1, "cache_dir": cache, "out": out,
        })


class TestHashOnce:
    """A CLI command hashes the dataset content once, however many cache
    lookups it makes."""

    @pytest.fixture
    def digests(self, monkeypatch):
        from mts_select import dataset as dataset_mod

        calls = []
        digest = dataset_mod._content_digest

        def counting(ds):
            calls.append(ds)
            return digest(ds)

        monkeypatch.setattr(dataset_mod, "_content_digest", counting)
        return calls

    def test_rank(self, tmp_path, digests):
        run(*gen_args(tmp_path / "d", noise=4))
        digests.clear()
        for threads in ("1", "2"):
            assert run("rank", "--data", str(tmp_path / "d"), "--knn", "5", "--threads", threads,
                       "--out", str(tmp_path / f"r{threads}")) == 0
        assert len(digests) == 2  # one per command: six lookups each

    def test_select(self, tmp_path, digests):
        run(*gen_args(tmp_path / "d", noise=4))
        cache = str(tmp_path / "c")
        run("rank", "--data", str(tmp_path / "d"), "--knn", "5", "--out", str(tmp_path / "r"),
            "--cache-dir", cache)
        digests.clear()
        assert run("select", "--data", str(tmp_path / "d"), "--knn", "5", "--target-size", "2",
                   "--train-fraction", "0.75", "--cache-dir", cache,
                   "--out", str(tmp_path / "s")) == 0
        assert len(digests) == 1


class TestNoNumpyMa:
    """A run never imports numpy.ma (about 17 ms per process): numpy 2 loads it
    lazily, on the first np.unique without a return flag or np.quantile."""

    SCRIPT = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    sys.exit(3)  # numpy 1.x imports it with numpy itself
from mts_select.cli import main
d, out = sys.argv[1], sys.argv[2]
common = ["--data", d, "--knn", "3", "--train-fraction", "0.67", "--cache-dir", out + "/c"]
assert main(["rank", *common, "--threads", "2", "--out", out + "/r"]) == 0
for penalty in ("mi", "cmi"):
    assert main(["select", *common, "--target-size", "2", "--penalty", penalty,
                 "--out", out + "/" + penalty]) == 0
    assert main(["eval", *common, "--subset", out + "/" + penalty + "/alpha.csv",
                 "--weighted", "--out", out + "/" + penalty + ".json"]) == 0
assert main(["eval", *common, "--subset", out + "/r/scores.csv", "--top", "2",
             "--aggregate", "graphs", "--out", out + "/top.json"]) == 0
print("numpy.ma" in sys.modules)
"""

    def test_rank_select_eval(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 12
        ds = make_dataset(
            [
                ("ts", "timeseries", [rng.normal(size=3 + i % 4) for i in range(n)]),
                ("ts2", "timeseries", [rng.normal(size=5) for _ in range(n)]),
                ("level", "scalar", rng.normal(size=n).tolist()),
                ("token", "categorical", [f"t{i % 3}" for i in range(n)]),
            ],
            ["a", "b", "c"] * 4,
        )
        write_dataset(ds, tmp_path / "d")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path / "d"),
                               str(tmp_path / "out")], env=env, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode == 3:
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
