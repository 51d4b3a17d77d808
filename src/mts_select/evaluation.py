"""Selection evaluation: aggregate per-feature distances, classify with 1-NN.

Aggregation sums raw per-feature distance matrices (optionally weighted by the
solver coefficients). Distances span train and test segments; test labels are
consumed only by the final accuracy computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class AggregatedDistance:
    values: np.ndarray  # n x n symmetric, zero diagonal
    weights: np.ndarray  # weight actually applied to each input matrix


def aggregate(matrices, weights=None) -> AggregatedDistance:
    """Elementwise sum of distance matrices, or weighted sum when weights given.

    Uniform weights of 1.0 reproduce the unweighted sum exactly.
    """
    mats = [np.asarray(getattr(M, "values", M), dtype=np.float64) for M in matrices]
    if not mats:
        raise InputError("cannot aggregate an empty selection")
    shape = mats[0].shape
    if any(M.shape != shape for M in mats):
        raise InputError("distance matrices have mismatched shapes")
    if weights is None:
        w = np.ones(len(mats), dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(mats),):
            raise InputError(f"{len(mats)} matrices but {w.size} weights")
        if np.any(w < 0):
            raise InputError("aggregation weights must be nonnegative")
    total = np.zeros(shape, dtype=np.float64)
    for wi, M in zip(w, mats):
        total += wi * M
    return AggregatedDistance(values=total, weights=w)


def nn1_classify(dist: AggregatedDistance | np.ndarray, train_ids, test_ids, labels) -> np.ndarray:
    """Label each test segment by its nearest training segment.

    Distance ties break toward the smallest training id.
    """
    values = np.asarray(getattr(dist, "values", dist), dtype=np.float64)
    train = np.sort(np.asarray(train_ids, dtype=np.intp))
    test = np.asarray(test_ids, dtype=np.intp)
    y = np.asarray(labels)
    if train.size == 0:
        raise InputError("cannot classify with an empty training set")
    nearest = np.argmin(values[np.ix_(test, train)], axis=1)  # first minimum: smallest id
    return y[train[nearest]]


def accuracy(predicted, truth) -> float:
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.shape != t.shape or p.size == 0:
        raise InputError("predictions and truth must be nonempty and equal-length")
    return float(np.mean(p == t))
