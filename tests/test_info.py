import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mts_select import info
from mts_select.errors import InputError
from mts_select.info import (
    VALID_KINDS,
    RedundancyMatrix,
    build_redundancy,
    conditional_mi,
    distinct,
    entropy,
    midpoint_quantiles,
    min_eigenvalue,
    mutual_information,
    nmi,
    nystrom_complete,
    nystrom_redundancy,
    psd_shift,
    quantize,
)

from oracles import cmi_brute, entropy_brute, mi_brute, redundancy_brute


class TestQuantize:
    def test_separated_clusters(self):
        np.testing.assert_array_equal(quantize([0.1, 0.1, 0.9, 0.9], 2), [0, 0, 1, 1])

    def test_constant_vector_lands_in_bin_zero(self):
        np.testing.assert_array_equal(quantize([3.0] * 4, 2), [0, 0, 0, 0])

    def test_lloyd_fixpoint_from_quantile_init(self):
        # Midpoint quantiles of (0, 0.4, 0.5, 1.0) are 0.2 and 0.75; the
        # assignment {0, 0.4} | {0.5, 1.0} is already a Lloyd fixpoint.
        np.testing.assert_array_equal(quantize([0.0, 0.4, 0.5, 1.0], 2), [0, 0, 1, 1])

    def test_bins_ordered_by_value(self):
        bins = quantize([5.0, 5.1, -2.0, -2.1, 9.0], 3)
        assert bins[2] == bins[3] == 0
        assert bins[0] == bins[1] == 1
        assert bins[4] == 2

    def test_too_few_points(self):
        with pytest.raises(InputError, match="cannot quantize"):
            quantize([1.0], 2)

    def test_deterministic_and_seed_ignored(self):
        x = np.random.default_rng(0).random(30)
        np.testing.assert_array_equal(quantize(x, 3), quantize(x.copy(), 3))


class TestMidpointQuantiles:
    """midpoint_quantiles against np.quantile, whose np.unique imports numpy.ma."""

    @given(
        st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.25, 1e-300, 7e15]),
                 min_size=2, max_size=30)
        | st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=30),
        st.integers(2, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_numpy(self, values, bins):
        x = np.array(values)
        probs = [(2 * i + 1) / (2 * bins) for i in range(bins)]
        got = midpoint_quantiles(x, probs)
        assert got.tobytes() == np.quantile(x, probs, method="midpoint").tobytes()
        assert x.tobytes() == np.array(values).tobytes()  # the input is not reordered

    @pytest.mark.parametrize("values", [[3, 1, 3, 2, 1], ["b", "a", "b"], [2.0, np.nan, np.nan, 1.0]])
    def test_distinct_equals_unique(self, values):
        np.testing.assert_array_equal(distinct(np.array(values)), np.unique(np.array(values)))


class TestEntropy:
    def test_uniform_two_bins(self):
        assert entropy([0, 0, 1, 1]) == pytest.approx(math.log(2), abs=1e-12)

    def test_constant(self):
        assert entropy([7, 7, 7]) == 0.0

    def test_three_quarters(self):
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert entropy([0, 0, 0, 1]) == pytest.approx(expected, abs=1e-12)


class TestMutualInformation:
    def test_self_information_is_entropy(self):
        a = [0, 0, 1, 1]
        assert mutual_information(a, a) == pytest.approx(math.log(2), abs=1e-12)

    def test_independent(self):
        assert mutual_information([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_relabel_invariance(self):
        assert mutual_information([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="length mismatch"):
            mutual_information([0, 1], [0, 1, 0])


class TestConditionalMi:
    def test_constant_condition_reduces_to_mi(self):
        a, b = [0, 1, 1, 0, 1], [0, 1, 0, 0, 1]
        c = [9] * 5
        assert conditional_mi(a, b, c) == pytest.approx(mutual_information(a, b), abs=1e-12)

    def test_condition_equal_to_first_argument(self):
        a = [0, 1, 0, 1]
        assert conditional_mi(a, [0, 0, 1, 1], a) == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_triple(self):
        a, b, c = [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 0, 1]
        assert cmi_brute(a, b, c) == 0.0
        assert conditional_mi(a, b, c) == pytest.approx(0.0, abs=1e-12)


class TestNmi:
    def test_perfect_alignment(self):
        v = np.array([0.05, 0.06, 0.91, 0.92])
        assert nmi(v, np.array([0, 0, 1, 1]), 2) == pytest.approx(1.0, abs=1e-12)

    def test_constant_embedding_scores_zero(self):
        assert nmi(np.full(6, 0.5), np.array([0, 1, 0, 1, 0, 1]), 2) == 0.0

    def test_independent_partitions(self):
        v = np.array([0.1, 0.1, 0.9, 0.9])
        assert nmi(v, np.array([0, 1, 0, 1]), 2) == pytest.approx(0.0, abs=1e-12)

    def test_constant_labels_rejected(self):
        with pytest.raises(InputError, match="constant"):
            nmi(np.array([0.1, 0.9]), np.array([1, 1]), 2)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_permutation_invariance(self, data):
        n = data.draw(st.integers(4, 10))
        v = np.array(data.draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        if len(np.unique(y)) < 2:
            y[0] = (y[1] + 1) % 3
        score = nmi(v, y, 2)
        assert -1e-12 <= score <= 1.0 + 1e-12
        relabeled = (y + 1) % 3
        assert nmi(v, relabeled, 2) == pytest.approx(score, abs=1e-12)


class TestOracleSweep:
    def test_exhaustive_small_cases(self):
        # Every labeling pair with n=3, up to 3 symbols each.
        for a in itertools.product(range(3), repeat=3):
            for b in itertools.product(range(3), repeat=3):
                assert mutual_information(a, b) == pytest.approx(mi_brute(a, b), abs=1e-12)
                assert entropy(a) == pytest.approx(entropy_brute(a), abs=1e-12)

    def test_randomized_larger_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(4, 9))
            a = rng.integers(0, 3, size=n)
            b = rng.integers(0, 3, size=n)
            c = rng.integers(0, 3, size=n)
            assert mutual_information(a, b) == pytest.approx(mi_brute(a, b), abs=1e-12)
            assert conditional_mi(a, b, c) == pytest.approx(cmi_brute(a, b, c), abs=1e-12)
            hi = min(entropy(a), entropy(b)) + 1e-12
            assert -1e-12 <= mutual_information(a, b) <= hi


class TestBuildRedundancy:
    def test_cmi_duplicates_have_zero_off_diagonal(self):
        v = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([0, 0, 1, 1])
        R = build_redundancy([v, v.copy()], y, 2, "cmi")
        assert R.values[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert R.values[0, 0] == pytest.approx(math.log(2), abs=1e-12)

    def test_mi_duplicates_off_diagonal_equals_entropy(self):
        v = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([0, 1, 0, 1])
        R = build_redundancy([v, v.copy()], y, 2, "mi")
        assert R.values[0, 1] == pytest.approx(math.log(2), abs=1e-12)
        assert R.values[0, 0] == pytest.approx(math.log(2), abs=1e-12)

    def test_cmi_single_feature(self):
        v = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([0, 0, 1, 1])
        R = build_redundancy([v], y, 2, "cmi")
        assert R.values.shape == (1, 1)
        bins = quantize(v, 2)
        assert R.values[0, 0] == pytest.approx(mutual_information(bins, y), abs=1e-12)

    def test_symmetry_and_gamma_zero(self):
        rng = np.random.default_rng(1)
        embs = [rng.random(12) for _ in range(5)]
        y = rng.integers(0, 3, size=12)
        for kind in ("mi", "cmi"):
            R = build_redundancy(embs, y, 3, kind)
            assert np.array_equal(R.values, R.values.T)
            assert R.gamma == 0.0

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="penalty kind"):
            build_redundancy([np.array([0.1, 0.9])], np.array([0, 1]), 2, "corr")


def assert_matches_pair_loop(embs, y, num_classes):
    """build_redundancy and nystrom_redundancy(s=m) against the pair loop:
    bitwise below 8 classes; at 8 or more, numpy's pairwise row sum in the
    loop may move the last bit."""
    bins = [quantize(e, num_classes) for e in embs]
    for kind in VALID_KINDS:
        expected = redundancy_brute(bins, y, kind)
        exact = build_redundancy(embs, y, num_classes, kind).values
        full = nystrom_redundancy(embs, y, num_classes, kind, s=len(embs)).values
        for got in (exact, full):
            if num_classes < 8:
                assert got.tobytes() == expected.tobytes(), kind
            else:
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


@st.composite
def redundancy_inputs(draw, classes):
    # The shape comes from hypothesis and the values from a seeded generator.
    # A feature is constant, takes two or c levels (ties, empty bins,
    # one-segment strata) or is continuous.
    c = draw(classes)
    n = draw(st.integers(c, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    embs = []
    for _ in range(draw(st.integers(1, 6))):
        levels = draw(st.sampled_from([1, 2, c, None]))
        embs.append(rng.random(n) if levels is None else rng.integers(0, levels, n).astype(float))
    return embs, rng.integers(0, c, size=n), c


class TestRedundancyKernel:
    @given(redundancy_inputs(st.integers(2, 7)))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_pair_loop(self, inputs):
        assert_matches_pair_loop(*inputs)

    @given(redundancy_inputs(st.integers(8, 12)))
    @settings(max_examples=20, deadline=None)
    def test_many_classes_within_1e15_of_pair_loop(self, inputs):
        assert_matches_pair_loop(*inputs)

    def test_edge_cases(self):
        assert_matches_pair_loop([np.array([0.0, 1.0])], np.array([0, 1]), 2)
        embs = [
            np.full(6, 0.5),
            np.array([0.0, 0, 0, 1, 1, 1]),
            np.array([0.0, 0, 0, 0, 0, 9]),
            np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
        ]
        y = np.array([0, 0, 1, 1, 2, 2])
        constant, empty_bin, singleton, _ = [quantize(e, 3) for e in embs]
        assert np.all(constant == 0)
        assert np.bincount(empty_bin, minlength=3).min() == 0
        assert 1 in np.bincount(singleton)
        assert 2 not in y[empty_bin == empty_bin[0]]
        assert_matches_pair_loop(embs, y, 3)

    def test_row_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        embs = [rng.random(20) for _ in range(7)]
        y = rng.integers(0, 3, size=20)

        def run():
            return [
                R.values.tobytes()
                for kind in VALID_KINDS
                for R in (
                    build_redundancy(embs, y, 3, kind),
                    nystrom_redundancy(embs, y, 3, kind, s=3, seed=1),
                )
            ]

        assert 7 * 7 * 3 * 3 * 3 <= info._BLOCK_ELEMENTS  # one block by default
        one_block = run()
        monkeypatch.setattr(info, "_BLOCK_ELEMENTS", 1)
        assert run() == one_block

    def test_cmi_label_length_mismatch(self):
        with pytest.raises(InputError, match="length mismatch"):
            build_redundancy([np.array([0.1, 0.9, 0.5])], np.array([0, 1]), 2, "cmi")


class TestNystrom:
    def test_full_landmark_set_is_exact(self):
        rng = np.random.default_rng(7)
        embs = [rng.random(14) for _ in range(6)]
        y = rng.integers(0, 2, size=14)
        for kind in ("mi", "cmi"):
            exact = build_redundancy(embs, y, 2, kind)
            approx = nystrom_redundancy(embs, y, 2, kind, s=6, seed=0)
            np.testing.assert_allclose(approx.values, exact.values, atol=1e-12, rtol=0)
            assert approx.landmarks == (0, 1, 2, 3, 4, 5)

    def test_rank_one_completion_exact(self):
        q = np.array([0.9, -0.4, 0.25, 0.7, -0.15])
        Q = np.outer(q, q)
        for s in (1, 2, 3):
            A = Q[:s, :s]
            B = Q[:s, s:]
            np.testing.assert_allclose(nystrom_complete(A, B), Q[s:, s:], atol=1e-9, rtol=0)

    def test_zero_landmark_block_completes_to_zero(self):
        A = np.zeros((1, 1))
        B = np.zeros((1, 3))
        np.testing.assert_array_equal(nystrom_complete(A, B), np.zeros((3, 3)))

    def test_constant_landmark_embedding(self):
        # A constant landmark has zero entropy, so its "mi" row is all zero.
        embs = [np.full(8, 0.5), np.array([0.1, 0.2, 0.8, 0.9, 0.15, 0.25, 0.85, 0.95])]
        y = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        R = nystrom_redundancy(embs, y, 2, "mi", s=1, seed=3)
        assert np.all(np.isfinite(R.values))

    def test_too_many_landmarks(self):
        with pytest.raises(InputError, match="landmark count"):
            nystrom_redundancy([np.array([0.1, 0.9, 0.2])], np.array([0, 1, 0]), 2, "mi", s=2)


class TestPsdShift:
    def test_two_by_two_antidiagonal(self):
        R = psd_shift(RedundancyMatrix(kind="mi", values=np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert R.gamma == pytest.approx(1.0 + 1e-9, abs=1e-15)
        assert np.linalg.eigvalsh(R.values)[0] >= -1e-9

    def test_already_psd(self):
        R = psd_shift(RedundancyMatrix(kind="mi", values=np.eye(3)))
        assert R.gamma == pytest.approx(1e-9, abs=1e-15)
        np.testing.assert_allclose(R.values, np.eye(3) * (1 + 1e-9), atol=1e-12)

    def test_scalar_negative(self):
        R = psd_shift(RedundancyMatrix(kind="cmi", values=np.array([[-3.0]])))
        assert R.gamma == pytest.approx(3.0 + 1e-9, abs=1e-12)
        assert R.values[0, 0] == pytest.approx(0.0, abs=2e-9)

    def test_random_matrices_become_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            raw = rng.normal(size=(m, m))
            sym = 0.5 * (raw + raw.T)
            shifted = psd_shift(RedundancyMatrix(kind="mi", values=sym))
            assert np.linalg.eigvalsh(shifted.values)[0] >= -1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(InputError, match="non-finite"):
            psd_shift(RedundancyMatrix(kind="mi", values=np.array([[np.nan]])))

    def test_power_iteration_path_matches_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            raw = rng.normal(size=(6, 6))
            sym = 0.5 * (raw + raw.T)
            dense = min_eigenvalue(sym)
            iterative = min_eigenvalue(sym, dense_cutoff=1)
            assert iterative == pytest.approx(dense, abs=1e-7)
