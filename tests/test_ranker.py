import numpy as np
import pytest

from mts_select.dataset import Dataset
from mts_select.errors import InputError
from mts_select.ranker import RankResult, average_scores, map_features, rank_features
from mts_select.seeding import child_rng

from conftest import make_dataset


def planted_scalar_dataset(seed, n=60, with_duplicate=False):
    """Feature A: class-indicator scalar; feature B: pure noise scalar."""
    rng = child_rng(seed, "test-planted")
    labels = ["a" if i % 2 == 0 else "b" for i in range(n)]
    indicator = [0.0 if lab == "a" else 1.0 for lab in labels]
    noise = rng.random(n).tolist()
    specs = [("ind", "scalar", indicator), ("noise", "scalar", noise)]
    if with_duplicate:
        specs.append(("ind2", "scalar", list(indicator)))
    return make_dataset(specs, labels)


class TestRankFeatures:
    def test_single_feature_order(self):
        ds = make_dataset([("only", "scalar", [0.0, 1.0, 0.0, 1.0])], ["a", "b", "a", "b"])
        result = rank_features(ds, knn_k=1, seed=0)
        np.testing.assert_array_equal(result.order, [0])

    def test_planted_indicator_beats_noise(self):
        wins = 0
        for seed in range(10):
            ds = planted_scalar_dataset(seed)
            result = rank_features(ds, knn_k=10, seed=seed)
            if result.scores[0] > result.scores[1] and result.order[0] == 0:
                wins += 1
        assert wins >= 9

    def test_duplicate_features_score_identically(self):
        ds = planted_scalar_dataset(3, with_duplicate=True)
        result = rank_features(ds, knn_k=10, seed=3)
        assert result.scores[0] == result.scores[2]
        # Tie broken by ascending feature id.
        pos0 = list(result.order).index(0)
        pos2 = list(result.order).index(2)
        assert pos0 < pos2

    def test_feature_permutation_equivariance(self):
        ds = planted_scalar_dataset(5, with_duplicate=True)
        swapped = make_dataset(
            [
                ("noise", "scalar", [s.values[1] for s in ds.segments]),
                ("ind", "scalar", [s.values[0] for s in ds.segments]),
                ("ind2", "scalar", [s.values[2] for s in ds.segments]),
            ],
            [s.label for s in ds.segments],
        )
        base = rank_features(ds, knn_k=10, seed=5)
        perm = rank_features(swapped, knn_k=10, seed=5)
        assert perm.scores[1] == base.scores[0]
        assert perm.scores[0] == base.scores[1]
        assert perm.scores[2] == base.scores[2]

    def test_monotone_transform_keeps_scores(self):
        ds = planted_scalar_dataset(7)
        transformed = make_dataset(
            [
                ("ind", "scalar", [3.0 * s.values[0] + 5.0 for s in ds.segments]),
                ("noise", "scalar", [s.values[1] for s in ds.segments]),
            ],
            [s.label for s in ds.segments],
        )
        base = rank_features(ds, knn_k=10, seed=7)
        scaled = rank_features(transformed, knn_k=10, seed=7)
        assert scaled.scores[0] == base.scores[0]

    def test_uses_training_segments_only(self):
        ds = planted_scalar_dataset(9)
        train = tuple(range(0, 40))
        test = tuple(range(40, 60))
        ds_split = ds.with_split(train, test)
        base = rank_features(ds_split, knn_k=10, seed=9)
        # Poison test labels (cycling within existing tokens; the earliest
        # segment of each class is in training, so class order is unchanged).
        poisoned_segments = []
        for seg in ds_split.segments:
            label = seg.label
            if seg.id in test:
                label = "b" if label == "a" else "a"
            poisoned_segments.append(type(seg)(seg.id, seg.values, label))
        poisoned = Dataset(
            descriptors=ds_split.descriptors,
            segments=tuple(poisoned_segments),
            classes=ds_split.classes,
            train_ids=train,
            test_ids=test,
        )
        after = rank_features(poisoned, knn_k=10, seed=9)
        assert np.array_equal(base.scores, after.scores)
        assert np.array_equal(base.order, after.order)

    def test_knn_clamped_with_warning(self):
        ds = make_dataset(
            [("s", "scalar", [0.0, 1.0, 0.0, 1.0])],
            ["a", "b", "a", "b"],
        )
        with pytest.warns(RuntimeWarning, match="clamping"):
            result = rank_features(ds, knn_k=10, seed=0)
        assert result.scores.shape == (1,)

    def test_scores_within_unit_interval(self):
        ds = planted_scalar_dataset(11)
        result = rank_features(ds, knn_k=10, seed=11)
        assert np.all(result.scores >= 0.0) and np.all(result.scores <= 1.0 + 1e-12)

    def test_constant_feature_scores_zero_without_crashing(self):
        # All-zero distances mean every neighbor set is an index-tie pick;
        # the embedding collapses and the score falls back to 0.
        n = 12
        labels = ["a", "b"] * 6
        ds = make_dataset(
            [("flat", "scalar", [5.0] * n),
             ("ind", "scalar", [0.0 if lab == "a" else 1.0 for lab in labels])],
            labels,
        )
        result = rank_features(ds, knn_k=3, seed=2)
        assert result.scores[1] > result.scores[0]
        assert result.scores[0] <= 1.0 + 1e-12

    def test_heterogeneous_kinds_rank_together(self):
        # A class-aligned series, a class-aligned token, and scalar noise:
        # each kind runs through its own metric, informative ones score high.
        rng = child_rng(13, "hetero")
        n = 40
        labels = ["a" if i % 2 == 0 else "b" for i in range(n)]
        series = [
            (np.full(8, 0.0 if lab == "a" else 6.0) + rng.standard_normal(8)).tolist()
            for lab in labels
        ]
        tokens = ["ward" if lab == "a" else "icu" for lab in labels]
        noise = rng.random(n).tolist()
        ds = make_dataset(
            [("wave", "timeseries", series), ("unit", "categorical", tokens),
             ("age", "scalar", noise)],
            labels,
        )
        result = rank_features(ds, knn_k=5, seed=13)
        assert result.scores[0] > result.scores[2]
        assert result.scores[1] > result.scores[2]
        assert set(result.order[:2].tolist()) == {0, 1}


class TestMapFeatures:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_results_in_id_order(self, threads):
        ids = [4, 0, 7, 2, 9, 1]
        assert map_features(lambda j: j * j, ids, threads) == [16, 0, 49, 4, 81, 1]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_error_propagates(self, threads):
        def fn(j):
            if j == 2:
                raise InputError(f"feature {j} is broken")
            return j

        with pytest.raises(InputError, match="feature 2 is broken"):
            map_features(fn, range(5), threads)


class TestAverageScores:
    def test_single_result_identity(self):
        r = RankResult(scores=np.array([0.2, 0.9]), order=np.array([1, 0]))
        out = average_scores([r])
        np.testing.assert_array_equal(out.scores, r.scores)
        np.testing.assert_array_equal(out.order, r.order)

    def test_two_results_tie_break(self):
        a = RankResult(scores=np.array([1.0, 0.0]), order=np.array([0, 1]))
        b = RankResult(scores=np.array([0.0, 1.0]), order=np.array([1, 0]))
        out = average_scores([a, b])
        np.testing.assert_allclose(out.scores, [0.5, 0.5])
        np.testing.assert_array_equal(out.order, [0, 1])

    def test_mean_of_copies_is_idempotent(self):
        r = RankResult(scores=np.array([0.3, 0.7, 0.1]), order=np.array([1, 0, 2]))
        out = average_scores([r, r, r])
        np.testing.assert_allclose(out.scores, r.scores, atol=1e-15)
        np.testing.assert_array_equal(out.order, r.order)

    def test_dimension_mismatch(self):
        a = RankResult(scores=np.array([1.0]), order=np.array([0]))
        b = RankResult(scores=np.array([1.0, 2.0]), order=np.array([1, 0]))
        with pytest.raises(InputError, match="different feature counts"):
            average_scores([a, b])
