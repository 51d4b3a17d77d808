"""Feature ranking: NMI between each feature's graph embedding and the labels.

Each training-set feature pipeline is distance matrix -> k-NN graph ->
symmetrize -> power-iteration embedding -> NMI against the training labels.
Only training segments are consumed; test labels never enter the score.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .distance import cached_distance_matrix
from .errors import InputError
from .graph import knn_graph, symmetrize
from .info import distinct, nmi
from .seeding import child_seed
from .spectral import power_iteration_embedding


@dataclass
class RankResult:
    scores: np.ndarray  # score per feature id
    order: np.ndarray  # feature ids by descending score, ties by ascending id


def ranking_order(scores: np.ndarray) -> np.ndarray:
    ids = np.arange(len(scores))
    return np.lexsort((ids, -np.asarray(scores, dtype=np.float64)))


def clamp_neighbors(knn_k: int, n_train: int) -> int:
    if knn_k >= n_train:
        clamped = n_train - 1
        warnings.warn(
            f"k={knn_k} does not fit {n_train} training segments; clamping to {clamped}",
            RuntimeWarning,
            stacklevel=3,
        )
        return clamped
    return knn_k


def map_features(fn, ids, threads: int) -> list:
    """[fn(i) for i in ids], on a pool of `threads` workers when threads > 1.

    Results come back in the order of ids whatever the thread count, and an
    exception raised for any id propagates to the caller.
    """
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, ids))
    return [fn(i) for i in ids]


def feature_embeddings(
    ds: Dataset,
    knn_k: int,
    *,
    epsilon: float | None = None,
    max_iter: int = 1000,
    seed: int = 0,
    cache_dir=None,
    window: int | None = None,
    znorm: bool = False,
    threads: int = 1,
):
    """Per-feature training-set similarity graphs and embeddings.

    Returns (graphs, embeddings), both indexed by feature id. The power
    iteration start vector is derived once from the root seed and shared by
    every feature: two features with identical values then get bitwise
    identical embeddings, and reordering features cannot change any result.
    """
    train = np.asarray(ds.train_ids, dtype=np.intp)
    if train.size < 2:
        raise InputError("need at least two training segments")
    k = clamp_neighbors(knn_k, train.size)
    init_seed = child_seed(seed, "embedding-init")

    def build(feature_id: int):
        dist = cached_distance_matrix(ds, feature_id, cache_dir, window=window, znorm=znorm)
        sub = dist.values[np.ix_(train, train)]
        W = symmetrize(knn_graph(sub, k))
        try:
            emb = power_iteration_embedding(W, epsilon=epsilon, max_iter=max_iter, seed=init_seed)
        except InputError as exc:
            raise InputError(f"feature {ds.descriptors[feature_id].name!r}: {exc}") from None
        return W, emb

    results = map_features(build, range(ds.m), threads)
    graphs = [r[0] for r in results]
    embeddings = [r[1] for r in results]
    return graphs, embeddings


def rank_features(
    ds: Dataset,
    knn_k: int = 10,
    *,
    epsilon: float | None = None,
    max_iter: int = 1000,
    seed: int = 0,
    cache_dir=None,
    window: int | None = None,
    znorm: bool = False,
    threads: int = 1,
) -> RankResult:
    """Score every feature by NMI(embedding, training labels) and sort."""
    train = np.asarray(ds.train_ids, dtype=np.intp)
    y_train = ds.label_codes()[train]
    if len(distinct(y_train)) < 2:
        raise InputError("training labels contain a single class")
    num_classes = len(ds.classes)
    _, embeddings = feature_embeddings(
        ds,
        knn_k,
        epsilon=epsilon,
        max_iter=max_iter,
        seed=seed,
        cache_dir=cache_dir,
        window=window,
        znorm=znorm,
        threads=threads,
    )
    scores = np.empty(ds.m, dtype=np.float64)
    for j, emb in enumerate(embeddings):
        try:
            scores[j] = nmi(emb.values, y_train, num_classes)
        except InputError as exc:
            raise InputError(f"feature {ds.descriptors[j].name!r}: {exc}") from None
    return RankResult(scores=scores, order=ranking_order(scores))


def average_scores(results: list[RankResult]) -> RankResult:
    """Componentwise mean of several rankings (e.g. across dataset halves)."""
    if not results:
        raise InputError("need at least one ranking to average")
    m = len(results[0].scores)
    if any(len(r.scores) != m for r in results):
        raise InputError("rankings cover different feature counts")
    mean = np.mean(np.stack([r.scores for r in results]), axis=0)
    return RankResult(scores=mean, order=ranking_order(mean))
