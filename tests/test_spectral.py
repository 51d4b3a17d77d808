import numpy as np
import pytest

from mts_select.errors import InputError
from mts_select.graph import symmetrize
from mts_select.spectral import power_iteration_embedding

from oracles import power_iteration_reference


def planted_graph(sizes, seed, edge_prob=0.7):
    """Disconnected components, each a dense random graph plus a ring (and so
    containing triangles for aperiodic mixing)."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    for size in sizes:
        idx = np.arange(start, start + size)
        block = (rng.random((size, size)) < edge_prob).astype(float)
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


class TestPowerIterationEmbedding:
    def test_complete_graph_converges_to_uniform(self):
        W = 1.0 - np.eye(4)
        emb = power_iteration_embedding(W, seed=42)
        np.testing.assert_allclose(emb.values, 0.25, atol=1e-6)
        assert emb.iterations_used < 50

    def test_zero_max_iter_returns_normalized_init(self):
        W = 1.0 - np.eye(5)
        emb = power_iteration_embedding(W, max_iter=0, seed=9)
        rng = np.random.default_rng(9)
        v = rng.random(5)
        np.testing.assert_array_equal(emb.values, v / v.sum())
        assert emb.iterations_used == 0

    def test_components_collapse_within_and_separate_across(self):
        hits = 0
        for seed in range(10):
            sizes = [6, 7] if seed % 2 else [5, 5, 6]
            W = planted_graph(sizes, seed=100 + seed)
            emb = power_iteration_embedding(W, epsilon=1e-10, max_iter=5000, seed=seed)
            v = emb.values
            bounds = np.cumsum([0] + sizes)
            chunks = [v[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
            within = max(c.max() - c.min() for c in chunks)
            means = sorted(c.mean() for c in chunks)
            across = max(b - a for a, b in zip(means[:-1], means[1:]))
            if within <= 1e-6 and across >= 1e-3:
                hits += 1
        assert hits >= 9

    def test_every_output_l1_normalized(self):
        for seed in range(5):
            W = planted_graph([5, 5], seed=seed)
            emb = power_iteration_embedding(W, seed=seed)
            assert abs(np.abs(emb.values).sum() - 1.0) <= 1e-12

    def test_matches_reference_implementation(self):
        for seed in (0, 1, 2):
            W = planted_graph([4, 5], seed=40 + seed)
            eps = 1e-8
            emb = power_iteration_embedding(W, epsilon=eps, max_iter=300, seed=seed)
            iterates, used = power_iteration_reference(W, epsilon=eps, max_iter=300, seed=seed)
            assert emb.iterations_used == used
            np.testing.assert_allclose(emb.values, iterates[used], atol=1e-12, rtol=0)
            for v in iterates:
                assert abs(np.abs(v).sum() - 1.0) <= 1e-12

    def test_two_cycle_components_stop_on_constant_velocity(self):
        # A graph of two disconnected mutual pairs is bipartite: the iterate
        # oscillates with constant per-entry velocity, so the stop rule fires
        # after the second iteration and returns that iterate unchanged.
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        emb = power_iteration_embedding(W, seed=42)
        assert emb.iterations_used == 2
        rng = np.random.default_rng(42)
        v0 = rng.random(4)
        v0 /= v0.sum()
        np.testing.assert_allclose(emb.values, v0, atol=1e-12)

    def test_isolated_vertex_propagates(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(InputError, match="vertex 2"):
            power_iteration_embedding(W, seed=0)

    def test_non_convergence_returns_last_iterate(self):
        W = planted_graph([8], seed=3)
        with pytest.warns(RuntimeWarning, match="max_iter=7"):
            emb = power_iteration_embedding(W, epsilon=0.0, max_iter=7, seed=1)
        assert emb.iterations_used == 7
        assert np.all(np.isfinite(emb.values))

    def test_deterministic_for_fixed_seed(self):
        W = symmetrize(planted_graph([5, 6], seed=8))
        a = power_iteration_embedding(W, seed=4)
        b = power_iteration_embedding(W, seed=4)
        assert np.array_equal(a.values, b.values)
        assert a.iterations_used == b.iterations_used
