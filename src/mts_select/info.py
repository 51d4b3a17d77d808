"""Discretization and information measures over embeddings.

Embeddings are real vectors, so mutual-information style scores first bin them
with a deterministic 1-D k-means (as many bins as there are classes). All
entropies and informations are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def quantize(values: np.ndarray, num_bins: int, seed: int = 0) -> np.ndarray:
    """Bin a real vector with 1-D k-means (Lloyd's algorithm).

    Centers start at the (2i+1)/(2*num_bins) midpoint quantiles, which makes
    the procedure deterministic; the seed parameter is accepted for interface
    stability but unused. Points equidistant to two centers go to the
    lower-indexed one, empty clusters keep their previous center, and the
    returned bin ids are relabeled by ascending center value.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    n = x.size
    if num_bins < 2:
        raise InputError(f"number of bins must be >= 2; got {num_bins}")
    if n < num_bins:
        raise InputError(f"cannot quantize {n} points into {num_bins} bins")
    probs = [(2 * i + 1) / (2 * num_bins) for i in range(num_bins)]
    centers = np.quantile(x, probs, method="midpoint")
    assign = None
    for _ in range(100):
        dist = np.abs(x[:, None] - centers[None, :])
        new_assign = np.argmin(dist, axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(num_bins):
            members = x[assign == c]
            if members.size:
                centers[c] = members.mean()
    order = np.argsort(centers, kind="stable")
    relabel = np.empty(num_bins, dtype=np.intp)
    relabel[order] = np.arange(num_bins)
    return relabel[assign]


def entropy(bins: np.ndarray) -> float:
    """Empirical Shannon entropy in nats; 0 * ln 0 counts as 0."""
    b = np.asarray(bins).ravel()
    if b.size == 0:
        raise InputError("entropy of an empty vector is undefined")
    _, counts = np.unique(b, return_counts=True)
    p = counts / b.size
    return float(-np.sum(p * np.log(p)))


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.float64)
    np.add.at(table, (ai, bi), 1.0)
    return table


def mutual_information(a: np.ndarray, b: np.ndarray) -> float:
    """Empirical mutual information of two discrete vectors, in nats."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise InputError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise InputError("mutual information of empty vectors is undefined")
    joint = _contingency(a, b) / a.size
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            pij = joint[i, j]
            if pij > 0.0:
                total += pij * np.log(pij / (pa[i] * pb[j]))
    return float(total)


def conditional_mi(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """I(a; b | c): condition-weighted mutual information within each stratum of c."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    c = np.asarray(c).ravel()
    if not a.size == b.size == c.size:
        raise InputError(f"length mismatch: {a.size}, {b.size}, {c.size}")
    total = 0.0
    for z in np.unique(c):
        sel = c == z
        pz = sel.sum() / c.size
        total += pz * mutual_information(a[sel], b[sel])
    return float(total)


def nmi(values: np.ndarray, labels: np.ndarray, num_classes: int) -> float:
    """Normalized mutual information between a binned embedding and the labels.

    The embedding is quantized into as many bins as there are classes; a
    constant embedding (zero bin entropy) scores 0 by convention.
    """
    y = np.asarray(labels).ravel()
    if len(np.unique(y)) < 2:
        raise InputError("labels are constant; NMI is undefined")
    bins = quantize(values, num_classes)
    h_bins = entropy(bins)
    if h_bins == 0.0:
        return 0.0
    h_y = entropy(y)
    return float(mutual_information(bins, y) / np.sqrt(h_bins * h_y))


@dataclass
class RedundancyMatrix:
    """Pairwise penalty matrix over features.

    kind "mi": entry (i, j) is I(bins_i; bins_j), so the diagonal is the bin
    entropy. kind "cmi": the diagonal is the label relevance I(bins_i; y) and
    the off-diagonal is the symmetrized conditional relevance
    0.5 * (I(bins_i; y | bins_j) + I(bins_j; y | bins_i)). Duplicated features
    therefore score high off-diagonal under "mi" and zero under "cmi"; both
    penalties are offered because they encode opposite conventions.
    """

    kind: str
    values: np.ndarray
    gamma: float = 0.0
    landmarks: tuple[int, ...] | None = None


VALID_KINDS = ("mi", "cmi")


def _pair_entry(kind: str, bins_i: np.ndarray, bins_j: np.ndarray, y: np.ndarray) -> float:
    if kind == "mi":
        return mutual_information(bins_i, bins_j)
    return 0.5 * (conditional_mi(bins_i, y, bins_j) + conditional_mi(bins_j, y, bins_i))


def _diag_entry(kind: str, bins_i: np.ndarray, y: np.ndarray) -> float:
    if kind == "mi":
        return entropy(bins_i)
    return mutual_information(bins_i, y)


def _quantize_all(embeddings, num_classes: int) -> list[np.ndarray]:
    vecs = [np.asarray(getattr(e, "values", e), dtype=np.float64).ravel() for e in embeddings]
    if not vecs:
        raise InputError("need at least one embedding")
    length = vecs[0].size
    if any(v.size != length for v in vecs):
        raise InputError("embeddings must share the same length")
    return [quantize(v, num_classes) for v in vecs]


def build_redundancy(embeddings, labels: np.ndarray, num_classes: int, kind: str) -> RedundancyMatrix:
    """Exact m x m redundancy matrix over quantized embeddings."""
    if kind not in VALID_KINDS:
        raise InputError(f"penalty kind must be one of {VALID_KINDS}; got {kind!r}")
    y = np.asarray(labels).ravel()
    bins = _quantize_all(embeddings, num_classes)
    m = len(bins)
    out = np.zeros((m, m), dtype=np.float64)
    for i in range(m):
        out[i, i] = _diag_entry(kind, bins[i], y)
        for j in range(i + 1, m):
            v = _pair_entry(kind, bins[i], bins[j], y)
            out[i, j] = v
            out[j, i] = v
    return RedundancyMatrix(kind=kind, values=out)


def pinv_sym(A: np.ndarray, cutoff: float) -> np.ndarray:
    """Pseudo-inverse of a symmetric matrix, zeroing eigenvalues |l| <= cutoff."""
    w, V = np.linalg.eigh(A)
    inv = np.zeros_like(w)
    keep = np.abs(w) > cutoff
    inv[keep] = 1.0 / w[keep]
    return (V * inv) @ V.T


def nystrom_complete(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Low-rank completion block B^T A^+ B with a trace-scaled spectral cutoff.

    The cutoff 1e-8 * trace(A) / s regularizes the pseudo-inverse: a rank-one
    A reconstructs B^T A^-1 B exactly, and an all-zero landmark block yields an
    all-zero completion instead of a failure.
    """
    s = A.shape[0]
    cutoff = 1e-8 * float(np.trace(A)) / s if s else 0.0
    return B.T @ pinv_sym(A, cutoff) @ B


def nystrom_redundancy(
    embeddings,
    labels: np.ndarray,
    num_classes: int,
    kind: str,
    s: int,
    seed: int = 0,
) -> RedundancyMatrix:
    """Redundancy matrix with the non-landmark block filled by Nystrom completion.

    s landmark features are sampled uniformly without replacement; the exact
    landmark block A and cross block B are computed, the remaining block is
    B^T A^+ B, and the result is mapped back to original feature order (the
    chosen landmarks are recorded on the result). s == m reproduces
    build_redundancy exactly.
    """
    if kind not in VALID_KINDS:
        raise InputError(f"penalty kind must be one of {VALID_KINDS}; got {kind!r}")
    y = np.asarray(labels).ravel()
    bins = _quantize_all(embeddings, num_classes)
    m = len(bins)
    if not 1 <= s <= m:
        raise InputError(f"landmark count must satisfy 1 <= s <= {m}; got {s}")
    rng = np.random.default_rng(seed)
    landmarks = np.sort(rng.choice(m, size=s, replace=False))
    rest = np.setdiff1d(np.arange(m), landmarks)

    A = np.zeros((s, s), dtype=np.float64)
    for ai, i in enumerate(landmarks):
        A[ai, ai] = _diag_entry(kind, bins[i], y)
        for aj in range(ai + 1, s):
            v = _pair_entry(kind, bins[i], bins[landmarks[aj]], y)
            A[ai, aj] = v
            A[aj, ai] = v
    B = np.zeros((s, rest.size), dtype=np.float64)
    for ai, i in enumerate(landmarks):
        for rj, j in enumerate(rest):
            B[ai, rj] = _pair_entry(kind, bins[i], bins[j], y)

    approx = np.zeros((m, m), dtype=np.float64)
    order = np.concatenate([landmarks, rest])
    block = np.block([[A, B], [B.T, nystrom_complete(A, B)]])
    block = 0.5 * (block + block.T)
    approx[np.ix_(order, order)] = block
    return RedundancyMatrix(kind=kind, values=approx, landmarks=tuple(int(i) for i in landmarks))


def min_eigenvalue(values: np.ndarray, dense_cutoff: int = 2000) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    Dense eigensolve up to dense_cutoff rows; beyond that, power iteration on
    the shifted matrix c*I - R (c an upper bound on the spectrum) with a fixed
    deterministic start vector.
    """
    R = np.asarray(values, dtype=np.float64)
    m = R.shape[0]
    if m <= dense_cutoff:
        return float(np.linalg.eigvalsh(R)[0])
    c = float(np.max(np.sum(np.abs(R), axis=1)))
    S = c * np.eye(m) - R
    v = np.ones(m) + np.linspace(0.0, 1e-3, m)
    v /= np.linalg.norm(v)
    rayleigh = 0.0
    for _ in range(1000):
        u = S @ v
        norm = np.linalg.norm(u)
        if norm == 0.0:
            return c
        v = u / norm
        new_rayleigh = float(v @ (S @ v))
        if abs(new_rayleigh - rayleigh) <= 1e-13 * max(1.0, abs(new_rayleigh)):
            rayleigh = new_rayleigh
            break
        rayleigh = new_rayleigh
    return c - rayleigh


def psd_shift(R: RedundancyMatrix, dense_cutoff: int = 2000) -> RedundancyMatrix:
    """Add gamma * I with gamma = max(0, -lambda_min) + 1e-9, recording gamma."""
    values = np.asarray(R.values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise InputError("redundancy matrix contains non-finite entries")
    lam_min = min_eigenvalue(values, dense_cutoff=dense_cutoff)
    gamma = max(0.0, -lam_min) + 1e-9
    shifted = values + gamma * np.eye(values.shape[0])
    return RedundancyMatrix(kind=R.kind, values=shifted, gamma=gamma, landmarks=R.landmarks)
