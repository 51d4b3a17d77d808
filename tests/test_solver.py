import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mts_select.errors import ConsistencyError, InputError
from mts_select.graph import knn_graph, label_graph, symmetrize
from mts_select.info import RedundancyMatrix, psd_shift
import mts_select.solver as solver_mod
from mts_select.solver import (
    coordinate_gradient,
    flatten,
    max_lambda,
    objective,
    prox_l1_nonneg,
    solve,
    solve_for_support,
)

from oracles import design_columns, grid_search_objective


def random_instance(rng, m=None, n=None):
    """Random design + PSD-shifted penalty with the optimum inside [0, 3]^m,
    and the (graphs, target) it was built from."""
    m = m or int(rng.integers(1, 6))
    n = n or int(rng.integers(2, 5))
    graphs = [rng.random((n, n)) * 0.9 + 0.1 for _ in range(m)]
    target = rng.random((n, n))
    design = flatten(graphs, target)
    raw = rng.random((m, m))
    penalty = psd_shift(RedundancyMatrix(kind="mi", values=0.5 * (raw + raw.T))).values
    lam = float(rng.random() * 0.3)
    beta = float(rng.random() * 1.5 + 0.2)
    return design, penalty, lam, beta, (graphs, target)


class TestFlatten:
    def test_row_major_column(self):
        graphs = [np.array([[0.0, 1], [1, 0]]), np.array([[1.0, 2], [0, 3]])]
        target = np.array([[1.0, 2], [3, 4]])
        design = flatten(graphs, target)
        H, h = design_columns(graphs, target)
        np.testing.assert_array_equal(H[:, 1], [1, 2, 0, 3])
        np.testing.assert_array_equal(design.gram, H.T @ H)
        np.testing.assert_array_equal(design.cross, H.T @ h)
        assert design.target_sq == h @ h == 30.0

    def test_zero_matrix(self):
        design = flatten([np.zeros((2, 2))], np.zeros((2, 2)))
        H, h = design_columns([np.zeros((2, 2))], np.zeros((2, 2)))
        np.testing.assert_array_equal(H[:, 0], np.zeros(4))
        np.testing.assert_array_equal(design.gram, [[0.0]])
        np.testing.assert_array_equal(design.cross, [0.0])
        assert design.target_sq == 0.0

    def test_gram_diag(self):
        design = flatten([np.array([[0.0, 1], [1, 0]])], np.zeros((2, 2)))
        assert design.gram[0, 0] == 2.0

    def test_frobenius_norm_preserved(self):
        rng = np.random.default_rng(0)
        W = rng.random((5, 5))
        design = flatten([W], np.zeros((5, 5)))
        H, _ = design_columns([W], np.zeros((5, 5)))
        assert design.gram[0, 0] == H[:, 0] @ H[:, 0]

    @pytest.mark.parametrize(
        "block_entries", [solver_mod.BLOCK_ENTRIES, 1], ids=["one_block", "row_per_block"]
    )
    def test_gram_form_exact_on_knn_graphs(self, monkeypatch, block_entries):
        # Symmetrized k-NN graphs are in {0, 1/2, 1} and the label graph is
        # 0/1, so 4 * W and the label graph are integer and the Gram form is
        # an integer count over 16 (gram) or 4 (cross), whatever the order of
        # summation: one block of rows or one row per block.
        monkeypatch.setattr(solver_mod, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(15)
        for n, m, k in ((5, 1, 1), (12, 4, 3), (30, 7, 5)):
            graphs = [symmetrize(knn_graph(rng.random((n, n)), k)) for _ in range(m)]
            target = label_graph(rng.permutation(np.arange(n) % 3))
            design = flatten(graphs, target)
            quarters = [[int(4 * x) for x in W.ravel()] for W in graphs]
            labels = [int(x) for x in target.ravel()]
            for j in range(m):
                cross = sum(a * b for a, b in zip(quarters[j], labels))
                assert design.cross[j] == cross / 4
                for i in range(m):
                    gram = sum(a * b for a, b in zip(quarters[i], quarters[j]))
                    assert design.gram[i, j] == gram / 16
            assert design.target_sq == sum(labels)

    def test_peak_memory_has_no_n2_m_term(self):
        # The design is accumulated over row blocks: its peak is O(m^2 +
        # block), far below the n^2 * m floats of the written-out columns.
        rng = np.random.default_rng(16)
        n, m = 400, 40
        graphs = [rng.integers(0, 5, size=(n, n)) * 0.25 for _ in range(m)]
        target = rng.integers(0, 2, size=(n, n)).astype(np.float64)
        tracemalloc.start()
        try:
            flatten(graphs, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * m * 8 / 4

    def test_size_mismatch(self):
        with pytest.raises(InputError, match="shape"):
            flatten([np.zeros((2, 2)), np.zeros((3, 3))], np.zeros((2, 2)))


class TestObjective:
    def test_zero_alpha(self):
        rng = np.random.default_rng(1)
        design, penalty, lam, beta, source = random_instance(rng, m=2, n=3)
        _, h = design_columns(*source)
        expected = 0.5 * float(h @ h)
        assert objective(np.zeros(2), design, penalty, lam, beta) == pytest.approx(expected)

    def test_least_squares_solution(self):
        # Invertible square system, no penalties: objective equals the
        # residual term at the exact solution, which is zero here.
        rng = np.random.default_rng(2)
        graphs = [rng.random((2, 2)) for _ in range(4)]
        alpha_true = np.array([0.5, 1.0, 0.25, 2.0])
        target = sum(a * W for a, W in zip(alpha_true, graphs))
        design = flatten(graphs, target)
        assert objective(alpha_true, design, np.zeros((4, 4)), 0.0, 0.0) == pytest.approx(
            0.0, abs=1e-18
        )

    def test_hand_computed_single_feature(self):
        design = flatten([np.array([[1.0, 0], [0, 0]])], np.array([[1.0, 0], [0, 0]]))
        value = objective(np.array([1.0]), design, np.array([[1.0]]), 0.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_gram_form_error_near_perfect_fit(self):
        # Near a perfect fit the residual is tiny but the Gram form subtracts
        # terms of size h^T h, so its error is a few ulp of h^T h, not of the
        # objective; the solver's 1e-10 relative monotone slack must cover it.
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            n, m = 8, 5
            graphs = [rng.random((n, n)) for _ in range(m)]
            alpha = rng.random(m) + 0.5
            target = sum(a * W for a, W in zip(alpha, graphs))
            design = flatten(graphs, target)
            value = objective(alpha, design, np.zeros((m, m)), 0.0, 0.0)
            exact = Fraction(0)
            for i in range(n):
                for j in range(n):
                    r = Fraction(target[i, j]) - sum(
                        Fraction(a) * Fraction(W[i, j]) for a, W in zip(alpha, graphs)
                    )
                    exact += r * r
            error = abs(Fraction(value) - exact / 2) / Fraction(np.spacing(design.target_sq))
            assert error <= 8


class TestCoordinateGradient:
    def test_at_origin(self):
        rng = np.random.default_rng(3)
        design, penalty, _, beta, source = random_instance(rng, m=3, n=3)
        H, h = design_columns(*source)
        for k in range(3):
            g = coordinate_gradient(np.zeros(3), k, design, penalty, beta)
            assert g == pytest.approx(-float(H[:, k] @ h), abs=1e-12)

    def test_hand_computed(self):
        design = flatten([np.array([[1.0, 0], [0, 0]])], np.array([[1.0, 0], [0, 0]]))
        g = coordinate_gradient(np.array([0.0]), 0, design, np.array([[1.0]]), 1.0)
        assert g == pytest.approx(-1.0, abs=1e-15)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            design, penalty, _, beta, source = random_instance(rng)
            H, h_y = design_columns(*source)
            m = H.shape[1]
            alpha = rng.random(m)

            def smooth(a):
                resid = h_y - H @ a
                return 0.5 * float(resid @ resid) + beta * float(a @ penalty @ a)

            h = 1e-5
            for k in range(m):
                e = np.zeros(m)
                e[k] = h
                fd = (smooth(alpha + e) - smooth(alpha - e)) / (2 * h)
                g = coordinate_gradient(alpha, k, design, penalty, beta)
                assert g == pytest.approx(fd, abs=1e-6)


class TestProx:
    @pytest.mark.parametrize("x,thr,expected", [(0.5, 0.2, 0.3), (-0.5, 0.2, 0.0), (0.1, 0.2, 0.0)])
    def test_examples(self, x, thr, expected):
        assert prox_l1_nonneg(x, thr) == pytest.approx(expected, abs=1e-15)


class TestSolve:
    def test_full_shrinkage_at_large_lambda(self):
        rng = np.random.default_rng(6)
        design, penalty, _, beta, _ = random_instance(rng, m=4, n=3)
        lam = max_lambda(design)
        res = solve(design, penalty, lam, beta)
        np.testing.assert_array_equal(res.alpha, np.zeros(4))
        assert res.sweeps_used == 1 and res.converged

    def test_scalar_least_squares(self):
        W = np.array([[1.0, 0], [1, 0]])
        target = np.array([[2.0, 0], [2, 0]])
        design = flatten([W], target)
        res = solve(design, np.zeros((1, 1)), lam=0.0, beta=0.0)
        np.testing.assert_allclose(res.alpha, [2.0], atol=1e-12)

    def test_duplicate_columns_concentrate(self):
        # With identical columns the redundancy penalty of duplicated features
        # equals their self-information, so coordinate descent leaves the
        # later duplicate at (numerically) zero: the mass concentrates.
        W = np.array([[0.0, 1], [1, 0]])
        design = flatten([W, W.copy()], W)
        h = math.log(2)
        penalty = psd_shift(RedundancyMatrix(kind="mi", values=np.array([[h, h], [h, h]]))).values
        res = solve(design, penalty, lam=0.05, beta=5.0)
        assert res.alpha[0] * res.alpha[1] <= 1e-9
        value = objective(res.alpha, design, penalty, 0.05, 5.0)
        grid = grid_search_objective(*design_columns([W, W.copy()], W), penalty, 0.05, 5.0)
        assert value <= grid + 2e-3

    def test_objective_trace_nonincreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            design, penalty, lam, beta, _ = random_instance(rng)
            res = solve(design, penalty, lam, beta)
            trace = res.objective_trace
            assert np.all(np.diff(trace) <= 1e-10 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_kkt_at_termination(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            design, penalty, lam, beta, source = random_instance(rng)
            H, h = design_columns(*source)
            res = solve(design, penalty, lam, beta, tol=1e-12)
            residual = h - H @ res.alpha
            for k in range(len(res.alpha)):
                g = -(H[:, k] @ residual) + 2.0 * beta * (penalty[k] @ res.alpha)
                scale = 1.0 + abs(g)
                if res.alpha[k] > 0:
                    assert abs(g + lam) <= 1e-6 * scale
                else:
                    assert g + lam >= -1e-6 * scale

    def test_matches_grid_oracle_small_instances(self):
        rng = np.random.default_rng(9)
        for m in (1, 2, 3):
            for _ in range(2):
                design, penalty, lam, beta, source = random_instance(rng, m=m, n=rng.integers(2, 5))
                res = solve(design, penalty, lam, beta, tol=1e-12)
                assert np.max(res.alpha) < 2.9, "instance optimum escapes the oracle box"
                value = objective(res.alpha, design, penalty, lam, beta)
                grid = grid_search_objective(*design_columns(*source), penalty, lam, beta)
                assert abs(value - grid) <= 2e-3

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(10)
        design, penalty, lam, beta, _ = random_instance(rng, m=4, n=4)
        a = solve(design, penalty, lam, beta)
        b = solve(design, penalty, lam, beta)
        assert a.alpha.tobytes() == b.alpha.tobytes()
        assert np.array_equal(a.objective_trace, b.objective_trace)

    def test_sweep_budget_exhaustion_warns(self):
        rng = np.random.default_rng(11)
        design, penalty, lam, beta, _ = random_instance(rng, m=4, n=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve(design, penalty, lam, beta).converged
        with pytest.warns(RuntimeWarning, match=re.escape(f"lambda={lam!r} within 1 sweeps")):
            res = solve(design, penalty, lam, beta, max_sweeps=1)
        assert not res.converged and res.sweeps_used == 1

    def test_degenerate_coordinate_rejected(self):
        # Zero column with an unshifted penalty whose diagonal is zero but
        # off-diagonal couples it to an active coordinate.
        W = np.array([[0.0, 1], [1, 0]])
        design = flatten([W, np.zeros((2, 2))], W)
        penalty = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InputError, match="degenerate coordinate"):
            solve(design, penalty, lam=0.0, beta=1.0)

    def test_zero_column_zero_penalty_is_dropped(self):
        W = np.array([[0.0, 1], [1, 0]])
        design = flatten([W, np.zeros((2, 2))], W)
        res = solve(design, np.zeros((2, 2)), lam=0.0, beta=0.0)
        assert res.alpha[1] == 0.0
        assert res.alpha[0] == pytest.approx(1.0, abs=1e-12)

    def test_negative_lambda_rejected(self):
        design = flatten([np.eye(2)], np.eye(2))
        with pytest.raises(InputError):
            solve(design, np.zeros((1, 1)), lam=-1.0, beta=0.0)


class TestSolveForSupport:
    def test_reaches_exact_size_when_achievable(self):
        rng = np.random.default_rng(11)
        graphs = [rng.random((4, 4)) for _ in range(6)]
        target = graphs[0] + 0.8 * graphs[1] + 0.6 * graphs[2]
        design = flatten(graphs, target)
        penalty = np.eye(6) * 1e-9
        lam, res = solve_for_support(design, penalty, beta=1.0, target_size=2)
        assert int(np.sum(res.alpha > 1e-9)) == 2

    def test_zero_target_picks_full_shrinkage(self):
        rng = np.random.default_rng(12)
        design, penalty, _, beta, _ = random_instance(rng, m=3, n=3)
        lam, res = solve_for_support(design, penalty, beta=beta, target_size=0)
        assert np.all(res.alpha <= 1e-9)

    def test_non_monotone_path_warns(self, monkeypatch):
        # Support sizes 3, 0, 4, 2 at lambda = 0, hi, hi/2, 3hi/4: the size
        # grows from 3 to 4 between lambda 0 and hi/2.
        design = flatten([np.eye(3)] * 4, np.eye(3))
        sizes = iter([3, 0, 4, 2])

        def fake_solve(design, penalty, lam, beta, max_sweeps, tol):
            alpha = np.zeros(4)
            alpha[: next(sizes)] = 1.0
            return solver_mod.SolveResult(alpha, np.array([0.0]), 1, True)

        monkeypatch.setattr(solver_mod, "solve", fake_solve)
        hi = max_lambda(design)
        path = [(0.0, 3), (0.5 * hi, 4), (0.75 * hi, 2), (hi, 0)]
        with pytest.warns(RuntimeWarning, match=re.escape(f"(lambda, size) {path}")):
            lam, res = solve_for_support(design, np.zeros((4, 4)), beta=1.0, target_size=2)
        assert lam == 0.75 * hi and int(np.sum(res.alpha > 0)) == 2

    def test_ties_prefer_smaller_then_earliest(self, monkeypatch):
        # Support 4 below 0.7 hi, 1 from there up to hi and 0 at hi, with
        # target 2. Size 1 is nearest; every later size-1 candidate of the
        # bisection ties with the first one tried (0.75 hi), which wins.
        design = flatten([np.eye(3)] * 4, np.eye(3))
        hi = max_lambda(design)

        def fake_solve(design, penalty, lam, beta, max_sweeps, tol):
            alpha = np.zeros(4)
            alpha[: 4 if lam < 0.7 * hi else 1 if lam < hi else 0] = 1.0
            return solver_mod.SolveResult(alpha, np.array([0.0]), 1, True)

        monkeypatch.setattr(solver_mod, "solve", fake_solve)
        with pytest.warns(RuntimeWarning, match="target support size 2 not reached; closest achieved is 1"):
            lam, res = solve_for_support(design, np.zeros((4, 4)), beta=1.0, target_size=2)
        assert lam == 0.75 * hi and int(np.sum(res.alpha > 0)) == 1

    def test_support_shrinks_with_lambda(self):
        rng = np.random.default_rng(13)
        design, penalty, _, beta, _ = random_instance(rng, m=5, n=4)
        sizes = []
        for lam in np.linspace(0.0, max_lambda(design), 8):
            res = solve(design, penalty, float(lam), beta)
            sizes.append(int(np.sum(res.alpha > 1e-9)))
        assert sizes[0] >= sizes[-1]
        assert sizes[-1] == 0


class TestConsistencyGuard:
    def test_objective_increase_raises(self, monkeypatch):
        # Forcing max_sweeps through a broken penalty should never happen in
        # normal use; simulate by patching the trace comparison path.
        rng = np.random.default_rng(14)
        design, penalty, lam, beta, _ = random_instance(rng, m=2, n=3)
        original = solver_mod.prox_l1_nonneg

        calls = {"n": 0}

        def flaky(x, thr):
            calls["n"] += 1
            if calls["n"] > 3:
                return original(x, thr) + 0.5  # corrupt later updates
            return original(x, thr)

        monkeypatch.setattr(solver_mod, "prox_l1_nonneg", flaky)
        with pytest.raises(ConsistencyError, match="objective increased"):
            solver_mod.solve(design, penalty, lam, beta)
