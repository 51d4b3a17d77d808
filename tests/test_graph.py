import numpy as np
import pytest

from mts_select.errors import InputError
from mts_select.graph import knn_graph, label_graph, row_normalize, symmetrize

from oracles import knn_graph_rows


class TestKnnGraph:
    def test_nearest_neighbor_edges(self):
        M = np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]])
        W = knn_graph(M, 1)
        np.testing.assert_array_equal(W, [[0, 1, 0], [1, 0, 0], [1, 0, 0]])

    def test_full_k_gives_complete_digraph(self):
        M = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
        W = knn_graph(M, 4)
        np.testing.assert_array_equal(W, 1.0 - np.eye(5))

    def test_ties_pick_smaller_indices(self):
        M = np.full((4, 4), 7.0)
        np.fill_diagonal(M, 0.0)
        W = knn_graph(M, 2)
        np.testing.assert_array_equal(W[3], [1, 1, 0, 0])
        np.testing.assert_array_equal(W[0], [0, 1, 1, 0])

    def test_rows_have_exactly_k_edges(self):
        rng = np.random.default_rng(0)
        M = rng.random((8, 8))
        M = M + M.T
        np.fill_diagonal(M, 0.0)
        for k in (1, 3, 7):
            assert np.all(knn_graph(M, k).sum(axis=1) == k)

    def test_k_too_large(self):
        with pytest.raises(InputError, match="k must be < n"):
            knn_graph(np.zeros((3, 3)), 3)

    def test_weights_reset_to_one(self):
        M = np.array([[0.0, 100.0], [100.0, 0.0]])
        assert knn_graph(M, 1)[0, 1] == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_row_by_row_oracle_on_ties(self, seed):
        # Distances from {0, 1, 2}, not symmetric and with a nonzero diagonal,
        # so most rows hold ties that only the index order breaks.
        rng = np.random.default_rng(seed)
        for n in (2, 3, 7, 16, 33):
            M = rng.integers(0, 3, size=(n, n)).astype(float)
            for k in sorted({1, n // 2, n - 1} - {0}):
                assert knn_graph(M, k).tobytes() == knn_graph_rows(M, k).tobytes(), (n, k)


class TestSymmetrize:
    def test_one_way_edge_becomes_half(self):
        Wd = np.zeros((2, 2))
        Wd[0, 1] = 1.0
        W = symmetrize(Wd)
        assert W[0, 1] == 0.5 and W[1, 0] == 0.5

    def test_mutual_edge_becomes_one(self):
        Wd = np.array([[0.0, 1], [1, 0]])
        W = symmetrize(Wd)
        assert W[0, 1] == 1.0 and W[1, 0] == 1.0

    def test_identity_input_becomes_zero(self):
        np.testing.assert_array_equal(symmetrize(np.eye(3)), np.zeros((3, 3)))

    def test_exactly_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(2)
        Wd = (rng.random((9, 9)) < 0.4).astype(float)
        W = symmetrize(Wd)
        assert np.array_equal(W, W.T)
        assert np.all(np.diag(W) == 0.0)
        assert set(np.unique(W)) <= {0.0, 0.5, 1.0}


class TestLabelGraph:
    def test_basic_indicator(self):
        W = label_graph(np.array(["a", "a", "b"]))
        np.testing.assert_array_equal(W, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])

    def test_all_distinct_labels_zero_matrix(self):
        W = label_graph(np.array([0, 1, 2, 3]))
        np.testing.assert_array_equal(W, np.zeros((4, 4)))

    def test_checkerboard(self):
        W = label_graph(np.array(["a", "b", "a", "b"]))
        expected = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
        np.testing.assert_array_equal(W, expected)

    def test_single_class_rejected(self):
        with pytest.raises(InputError, match="degenerate label graph"):
            label_graph(np.array(["a", "a", "a"]))


class TestRowNormalize:
    def test_already_stochastic(self):
        W = np.array([[0.0, 1], [1, 0]])
        np.testing.assert_array_equal(row_normalize(W), W)

    def test_divide_by_row_sums(self):
        W = np.array([[0.0, 0.5, 0.5], [0.5, 0, 0], [0.5, 0, 0]])
        N = row_normalize(W)
        np.testing.assert_allclose(N, [[0, 0.5, 0.5], [1, 0, 0], [1, 0, 0]])

    def test_isolated_vertex_named(self):
        W = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 0]])
        with pytest.raises(InputError, match="vertex 2"):
            row_normalize(W)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        W = symmetrize((rng.random((12, 12)) < 0.5).astype(float)) + 0.01
        np.fill_diagonal(W, 0.0)
        sums = row_normalize(W).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_zero_pattern_preserved(self):
        W = np.array([[0.0, 2, 0, 1], [2, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
        N = row_normalize(W)
        assert np.array_equal(N == 0, W == 0)
