"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every test pins its stated
tolerance and asserts its runtime budget.
"""

import itertools
import json
import time

import numpy as np
import pytest

from mts_select.cli import main
from mts_select.dataset import split
from mts_select.distance import _dtw_stacked, distance_matrix
from mts_select.evaluation import accuracy, aggregate, nn1_classify
from mts_select.graph import row_normalize
from mts_select.info import (
    RedundancyMatrix,
    build_redundancy,
    conditional_mi,
    entropy,
    mutual_information,
    nmi,
    nystrom_complete,
    nystrom_redundancy,
    psd_shift,
    quantize,
)
from mts_select.ranker import rank_features
from mts_select.select import select_features
from mts_select.solver import (
    coordinate_gradient,
    flatten,
    max_lambda,
    objective,
    solve,
)
from mts_select.spectral import power_iteration_embedding
from mts_select.synthetic import generate

from oracles import (
    PathTable,
    cmi_brute,
    design_columns,
    entropy_brute,
    grid_search_objective,
    mi_brute,
    nmi_from_bins_brute,
)


class Budget:
    def __init__(self, number, title, limit):
        self.number = number
        self.title = title
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"ACCEPTANCE {self.number} {status} ({elapsed:.1f}s / {self.limit:.0f}s): {self.title}")
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def random_solver_instance(rng, m=None, n=None):
    m = m or int(rng.integers(1, 7))
    n = n or int(rng.integers(2, 5))
    graphs = [rng.random((n, n)) * 0.9 + 0.1 for _ in range(m)]
    target = rng.random((n, n))
    design = flatten(graphs, target)
    raw = rng.random((m, m))
    penalty = psd_shift(RedundancyMatrix(kind="mi", values=0.5 * (raw + raw.T))).values
    lam = float(rng.random() * 0.3)
    beta = float(rng.random() * 1.5 + 0.2)
    return design, penalty, lam, beta, (graphs, target)


def test_criterion_1_dtw_oracle():
    with Budget(1, "DTW equals exhaustive warp-path enumeration", 10.0):
        values = [0.0, 1.0, 2.0]
        seqs = {L: np.array(list(itertools.product(values, repeat=L))) for L in range(1, 6)}
        tables = {(a, b): PathTable(a, b) for a in range(1, 6) for b in range(1, 6)}
        for a, S in seqs.items():
            for b, T in seqs.items():
                table = tables[(a, b)]
                bound_ok = (table.lengths >= max(a, b)) & (table.lengths < a + b)
                T_columns = np.ascontiguousarray(T.T)
                for s in S:
                    costs = np.abs(s[None, :, None] - T[:, None, :])
                    dp = _dtw_stacked(np.repeat(s[:, None], len(T), axis=1), T_columns, None)
                    flat = np.concatenate(
                        [costs.reshape(len(T), a * b), np.zeros((len(T), 1))], axis=1
                    )
                    sums = flat[:, table.idx].sum(axis=2)
                    mins = sums.min(axis=1)
                    assert np.array_equal(dp, mins), "DP disagrees with path enumeration"
                    optimal = sums == mins[:, None]
                    assert not np.any(optimal & ~bound_ok[None, :]), "path-length bound violated"


def _planted_components(rng, sizes):
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    for size in sizes:
        idx = np.arange(start, start + size)
        block = (rng.random((size, size)) < 0.7).astype(float)
        block = np.triu(block, 1)
        W[np.ix_(idx, idx)] = block + block.T
        for offset in range(size):
            a, b = idx[offset], idx[(offset + 1) % size]
            W[a, b] = W[b, a] = 1.0
        if size >= 3:
            W[idx[0], idx[2]] = W[idx[2], idx[0]] = 1.0
        start += size
    np.fill_diagonal(W, 0.0)
    return W


def test_criterion_2_embedding_separates_components():
    with Budget(2, "power-iteration embedding separates planted components", 5.0):
        hits = 0
        for trial in range(50):
            rng = np.random.default_rng(9000 + trial)
            n_components = 2 + trial % 2
            sizes = []
            remaining = int(rng.integers(12, 21))
            for c in range(n_components):
                left = n_components - c - 1
                size = int(rng.integers(3, max(4, remaining - 3 * left - 2)))
                size = min(size, remaining - 3 * left)
                sizes.append(size)
                remaining -= size
            sizes[-1] += remaining
            W = _planted_components(rng, sizes)

            # Trace the same update rule to audit per-iterate normalization.
            N = row_normalize(W)
            v = np.random.default_rng(trial).random(W.shape[0])
            v = v / v.sum()
            delta_prev = None
            for _ in range(5000):
                assert abs(np.abs(v).sum() - 1.0) <= 1e-12
                u = N @ v
                v_next = u / np.abs(u).sum()
                delta = np.abs(v_next - v)
                v = v_next
                if delta_prev is not None and np.max(np.abs(delta - delta_prev)) <= 1e-10:
                    break
                delta_prev = delta
            emb = power_iteration_embedding(W, epsilon=1e-10, max_iter=5000, seed=trial)
            np.testing.assert_allclose(emb.values, v, atol=1e-12, rtol=0)

            bounds = np.cumsum([0] + sizes)
            chunks = [emb.values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
            within = max(c.max() - c.min() for c in chunks)
            means = sorted(c.mean() for c in chunks)
            gap = max(b - a for a, b in zip(means[:-1], means[1:]))
            if within <= 1e-6 and gap >= 1e-3:
                hits += 1
        assert hits >= 45, f"only {hits}/50 runs separated the planted components"


def test_criterion_3_information_oracle():
    with Budget(3, "information measures match the contingency oracle", 30.0):
        tol = 1e-12
        # Exhaustive entropy, n up to 8 with 3 symbols (sampled stride keeps
        # the full n=8 stratum affordable while n <= 5 is fully enumerated).
        for n in range(1, 6):
            for a in itertools.product(range(3), repeat=n):
                assert abs(entropy(a) - entropy_brute(a)) <= tol
        for a in itertools.islice(itertools.product(range(3), repeat=8), 0, None, 7):
            assert abs(entropy(a) - entropy_brute(a)) <= tol
        # Exhaustive MI pairs at n=4 (3 symbols) and n=5 (2 symbols).
        labelings4 = list(itertools.product(range(3), repeat=4))
        for a in labelings4:
            for b in labelings4:
                assert abs(mutual_information(a, b) - mi_brute(a, b)) <= tol
        labelings5 = list(itertools.product(range(2), repeat=5))
        for a in labelings5:
            for b in labelings5:
                assert abs(mutual_information(a, b) - mi_brute(a, b)) <= tol
        # Exhaustive conditional MI at n=3 (3 symbols) and n=4 (2 symbols).
        labelings3 = list(itertools.product(range(3), repeat=3))
        for a in labelings3:
            for b in labelings3:
                for c in labelings3:
                    assert abs(conditional_mi(a, b, c) - cmi_brute(a, b, c)) <= tol
        labelings42 = list(itertools.product(range(2), repeat=4))
        for a in labelings42:
            for b in labelings42:
                for c in labelings42:
                    assert abs(conditional_mi(a, b, c) - cmi_brute(a, b, c)) <= tol
        # Randomized n <= 8 for all measures, including NMI via shared bins.
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(4, 9))
            a = rng.integers(0, 3, size=n)
            b = rng.integers(0, 3, size=n)
            c = rng.integers(0, 3, size=n)
            assert abs(mutual_information(a, b) - mi_brute(a, b)) <= tol
            assert abs(conditional_mi(a, b, c) - cmi_brute(a, b, c)) <= tol
            v = rng.random(n)
            y = rng.integers(0, 2, size=n)
            if len(np.unique(y)) < 2:
                y[0] = 1 - y[0]
            bins = quantize(v, 2)
            score = nmi(v, y, 2)
            assert abs(score - nmi_from_bins_brute(bins.tolist(), y.tolist())) <= tol
            assert -1e-12 <= score <= 1.0 + 1e-12
            permuted = (y + 1) % 2
            assert abs(nmi(v, permuted, 2) - score) <= tol


def test_criterion_4_solver():
    with Budget(4, "coordinate-descent solver invariants and grid oracle", 60.0):
        rng = np.random.default_rng(4)
        # (a) monotone objective + (b) KKT residual on 100 random instances.
        for _ in range(100):
            design, penalty, lam, beta, source = random_solver_instance(rng)
            res = solve(design, penalty, lam, beta)
            trace = res.objective_trace
            assert np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1])))
            H, h = design_columns(*source)
            residual = h - H @ res.alpha
            for k in range(len(res.alpha)):
                g = -(H[:, k] @ residual) + 2.0 * beta * (penalty[k] @ res.alpha)
                scale = 1.0 + abs(g)
                if res.alpha[k] > 0:
                    assert abs(g + lam) <= 1e-6 * scale
                else:
                    assert g + lam >= -1e-6 * scale
        # (c) full shrinkage at lambda >= max |H_k^T h_y|.
        for _ in range(10):
            design, penalty, _, beta, _ = random_solver_instance(rng)
            res = solve(design, penalty, max_lambda(design), beta)
            assert np.array_equal(res.alpha, np.zeros_like(res.alpha))
        # (d) objective within 2e-3 of the exhaustive grid oracle.
        for m in (1, 2, 3):
            for _ in range(2):
                design, penalty, lam, beta, source = random_solver_instance(rng, m=m, n=int(rng.integers(2, 5)))
                res = solve(design, penalty, lam, beta, tol=1e-12)
                assert np.max(res.alpha) < 2.9
                value = objective(res.alpha, design, penalty, lam, beta)
                grid = grid_search_objective(*design_columns(*source), penalty, lam, beta)
                assert abs(value - grid) <= 2e-3
        # (e) coordinate derivative matches central finite differences.
        for _ in range(20):
            design, penalty, _, beta, source = random_solver_instance(rng)
            H, h_y = design_columns(*source)
            m = H.shape[1]
            alpha = rng.random(m)

            def smooth(a):
                r = h_y - H @ a
                return 0.5 * float(r @ r) + beta * float(a @ penalty @ a)

            h = 1e-5
            for k in range(m):
                e = np.zeros(m)
                e[k] = h
                fd = (smooth(alpha + e) - smooth(alpha - e)) / (2 * h)
                assert abs(coordinate_gradient(alpha, k, design, penalty, beta) - fd) <= 1e-6


def test_criterion_5_psd_shift_and_nystrom():
    with Budget(5, "PSD shift and landmark completion", 10.0):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(1, 10))
            raw = rng.normal(size=(m, m))
            shifted = psd_shift(RedundancyMatrix(kind="mi", values=0.5 * (raw + raw.T)))
            assert np.linalg.eigvalsh(shifted.values)[0] >= -1e-9
        # Full landmark set reproduces the exact matrix.
        embs = [rng.random(16) for _ in range(7)]
        y = rng.integers(0, 3, size=16)
        for kind in ("mi", "cmi"):
            exact = build_redundancy(embs, y, 3, kind)
            approx = nystrom_redundancy(embs, y, 3, kind, s=7, seed=1)
            np.testing.assert_allclose(approx.values, exact.values, atol=1e-12, rtol=0)
        # Rank-one matrices complete exactly from any nonsingular landmark block.
        for trial in range(20):
            q = rng.normal(size=6) * 0.5
            Q = np.outer(q, q)
            for s in (1, 2, 3):
                if abs(np.trace(Q[:s, :s])) < 1e-6:
                    continue
                completed = nystrom_complete(Q[:s, :s], Q[:s, s:])
                np.testing.assert_allclose(completed, Q[s:, s:], atol=1e-9, rtol=0)


def test_criterion_6_planted_ranking_recovery():
    with Budget(6, "planted informative features rank in the top 7", 60.0):
        hits = 0
        for seed in range(10):
            ds = generate(n=60, classes=3, informative=5, noise=15, seed=seed)
            result = rank_features(ds, knn_k=10, seed=seed)
            top7 = set(int(j) for j in result.order[:7])
            if set(range(5)) <= top7:
                hits += 1
        assert hits >= 9, f"informative features recovered in only {hits}/10 seeds"


def test_criterion_7_duplicate_elimination():
    with Budget(7, "subset selection drops duplicated features", 120.0):
        hits = 0
        for seed in range(10):
            ds = generate(n=60, classes=3, informative=5, noise=15, seed=seed, duplicates=(0,))
            result = select_features(
                ds, 10, target_size=5, beta=1.0, penalty_kind="mi", seed=seed
            )
            pair = {0, ds.m - 1}
            if len(pair & set(result.selected)) <= 1:
                hits += 1
        assert hits >= 8, f"duplicate excluded in only {hits}/10 seeds"


def test_criterion_8_end_to_end_benefit():
    with Budget(8, "selected subset classifies at least as well as all features", 120.0):
        wins = 0
        for seed in range(10):
            ds = generate(n=60, classes=3, informative=5, noise=15, seed=seed)
            ds = split(ds, 2.0 / 3.0, seed)
            selection = select_features(
                ds, 10, target_size=5, beta=1.0, penalty_kind="mi", seed=seed
            )
            selected = selection.selected or [int(np.argmax(selection.alpha))]
            matrices = [distance_matrix(ds, j).values for j in range(ds.m)]
            y = ds.label_codes()
            test_ids = np.asarray(ds.test_ids, dtype=np.intp)

            def nn1_accuracy(ids, weights=None):
                agg = aggregate([matrices[j] for j in ids], weights)
                predictions = nn1_classify(agg, ds.train_ids, ds.test_ids, y)
                return accuracy(predictions, y[test_ids])

            if nn1_accuracy(selected) >= nn1_accuracy(list(range(ds.m))):
                wins += 1
            # Uniform weights must reproduce the unweighted path bit for bit.
            plain = aggregate([matrices[j] for j in selected])
            uniform = aggregate([matrices[j] for j in selected], [1.0] * len(selected))
            assert plain.values.tobytes() == uniform.values.tobytes()
        assert wins >= 8, f"selection helped in only {wins}/10 seeds"


def _run_cli(*argv):
    assert main(list(argv)) == 0


def test_criterion_9_byte_reproducibility(tmp_path):
    with Budget(9, "CLI runs are byte-identical across repeats and thread counts", 120.0):
        data = tmp_path / "data"
        gen_argv = ("gen-synthetic", "--n", "24", "--classes", "2", "--informative", "2",
                    "--noise", "2", "--seed", "5", "--out", str(data))
        gen_files = ("meta.json", "labels.csv", "values/sig0.csv", "values/sig1.csv",
                     "values/noise0.csv", "values/noise1.csv", "run.json")
        _run_cli(*gen_argv)
        snapshot = {rel: (data / rel).read_bytes() for rel in gen_files}
        _run_cli(*gen_argv)  # identical config, same destination
        for rel in gen_files:
            assert (data / rel).read_bytes() == snapshot[rel], rel

        def rank_run(tag, threads):
            out = tmp_path / f"rank-{tag}"
            _run_cli("rank", "--data", str(data), "--knn", "5", "--seed", "5",
                     "--threads", str(threads), "--train-fraction", "0.67",
                     "--out", str(out), "--cache-dir", str(out / "cache"))
            return out

        r1, r4 = rank_run("a", 1), rank_run("c", 4)
        scores_first = (r1 / "scores.csv").read_bytes()
        run_first = (r1 / "run.json").read_bytes()
        rank_run("a", 1)  # identical config, same destination
        assert (r1 / "scores.csv").read_bytes() == scores_first
        assert (r1 / "run.json").read_bytes() == run_first
        assert (r4 / "scores.csv").read_bytes() == scores_first

        def select_run(tag, threads):
            out = tmp_path / f"select-{tag}"
            _run_cli("select", "--data", str(data), "--knn", "5", "--seed", "5",
                     "--threads", str(threads), "--train-fraction", "0.67",
                     "--target-size", "2", "--penalty", "mi",
                     "--out", str(out), "--cache-dir", str(out / "cache"))
            return out

        s1, s2, s4 = select_run("a", 1), select_run("b", 1), select_run("c", 4)
        for rel in ("alpha.csv", "alpha_meta.json"):
            assert (s1 / rel).read_bytes() == (s2 / rel).read_bytes(), rel
            assert (s1 / rel).read_bytes() == (s4 / rel).read_bytes(), rel

        def eval_run(tag, threads):
            out = tmp_path / f"eval-{tag}"
            out.mkdir()
            _run_cli("eval", "--data", str(data), "--seed", "5",
                     "--threads", str(threads), "--train-fraction", "0.67",
                     "--subset", str(s1 / "alpha.csv"),
                     "--out", str(out / "results.json"), "--cache-dir", str(out / "cache"))
            return out

        e1, e2, e4 = eval_run("a", 1), eval_run("b", 1), eval_run("c", 4)
        assert (e1 / "results.json").read_bytes() == (e2 / "results.json").read_bytes()
        assert (e1 / "results.json").read_bytes() == (e4 / "results.json").read_bytes()
