"""k-NN similarity graphs, symmetrization, label graph, row normalization.

Edge weights are reset to 1.0 when the k-NN graph is built, because raw
distance scales differ wildly between sensors; symmetrizing with
0.5 * (W + W^T) then yields weights in {0, 0.5, 1} with a zero diagonal.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .info import distinct


def knn_graph(distances: np.ndarray, k: int) -> np.ndarray:
    """Directed binary adjacency: row i marks the k nearest columns j != i.

    Ties on distance break toward the smaller column index, so the result is
    deterministic under any permutation of equal-distance candidates.
    """
    M = np.asarray(distances, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("distance matrix must be square")
    n = M.shape[0]
    if k < 1:
        raise InputError(f"k must be >= 1; got {k}")
    if k >= n:
        raise InputError(f"k must be < n; got k={k}, n={n}")
    out = np.zeros((n, n), dtype=np.float64)
    masked = M.copy()
    np.fill_diagonal(masked, np.inf)
    nearest = np.argsort(masked, axis=1, kind="stable")[:, :k]
    np.put_along_axis(out, nearest, 1.0, axis=1)
    return out


def symmetrize(directed: np.ndarray) -> np.ndarray:
    """0.5 * (W + W^T) with the diagonal forced to zero."""
    W = np.asarray(directed, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise InputError("adjacency matrix must be square")
    out = 0.5 * (W + W.T)
    np.fill_diagonal(out, 0.0)
    return out


def label_graph(labels: np.ndarray) -> np.ndarray:
    """Same-label indicator matrix with zero diagonal."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise InputError("label vector must be one-dimensional")
    if len(distinct(y)) < 2:
        raise InputError("degenerate label graph: labels contain a single class")
    out = (y[:, None] == y[None, :]).astype(np.float64)
    np.fill_diagonal(out, 0.0)
    return out


def row_normalize(W: np.ndarray) -> np.ndarray:
    """Divide each row by its sum; rows then sum to 1."""
    W = np.asarray(W, dtype=np.float64)
    sums = W.sum(axis=1)
    zero = np.flatnonzero(sums <= 0.0)
    if zero.size:
        raise InputError(f"cannot normalize: vertex {int(zero[0])} is isolated (zero degree)")
    return W / sums[:, None]
