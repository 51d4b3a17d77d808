"""Discretization and information measures over embeddings.

Embeddings are real vectors, so mutual-information style scores first bin them
with a deterministic 1-D k-means (as many bins as there are classes). All
entropies and informations are in nats.

The redundancy matrices need a contingency table for every pair of features.
They are not built pair by pair: with each feature's bins one-hot encoded as
OH (n, m*c), the product OH^T OH holds every (bins_i, bins_j) table and
(OH (x) onehot(y))^T OH every (bins_i, y, bins_j) table, as exact integer
counts. The tables are then evaluated with the float arithmetic of
mutual_information and conditional_mi, in the same order, so the matrices
carry the same bits as calling those functions on each pair (below 8 classes;
see _mi_tables). Row features go through in blocks of bounded size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def distinct(values) -> np.ndarray:
    """The sorted distinct values of an array, as np.unique(values) gives them.

    Without a return flag, np.unique asks numpy.ma whether the array is masked,
    which imports numpy.ma (about 17 ms per process); with return_counts it
    takes its sort path, which does not.
    """
    return np.unique(values, return_counts=True)[0]


def midpoint_quantiles(x: np.ndarray, probs) -> np.ndarray:
    """np.quantile(x, probs, method="midpoint") for a float64 vector x of two
    or more values and every p in probs strictly between 0 and 1.

    It takes np.quantile's own steps on the same values, so it gives the same
    bits, but picks the partition indices with distinct: np.quantile picks
    them with a bare np.unique, which imports numpy.ma.
    """
    n = x.size
    scaled = (n - 1) * np.asarray(probs, dtype=np.float64)
    virtual = 0.5 * (np.floor(scaled) + np.ceil(scaled))
    # 0 < p < 1 puts virtual at most n - 1.5, or n - 2 where it is whole, so
    # both neighbours lie inside x and numpy's clamping at the ends never acts.
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    ordered = np.partition(x, distinct(np.concatenate(([0, -1], below, above))))
    lower, upper = ordered[below], ordered[above]
    gamma = np.where(virtual % 1 == 0, 0.0, 0.5)
    diff = upper - lower
    return np.where(gamma >= 0.5, upper - diff * (1 - gamma), lower + diff * gamma)


def quantize(values: np.ndarray, num_bins: int) -> np.ndarray:
    """Bin a real vector with 1-D k-means (Lloyd's algorithm).

    Centers start at the (2i+1)/(2*num_bins) midpoint quantiles, which makes
    the procedure deterministic. Points equidistant to two centers go to the
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
    centers = midpoint_quantiles(x, probs)
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
    for z in distinct(c):
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
    if len(distinct(y)) < 2:
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


# Cap on float64 count-table elements per row block of the redundancy kernel.
# A block of r row features against C column features holds r * C * c * c * k
# of them (c bins, k label values for "cmi", k = 1 for "mi"), and evaluating
# it keeps a few arrays of that size alive. A block is at least one row
# feature, so the kernel's working memory is the larger of ~256 KB and one
# row's C * c * c * k cells, not the m x m x c x c x k of all tables at once.
_BLOCK_ELEMENTS = 1 << 15


@dataclass
class _OneHot:
    """The encodings the kernel multiplies: onehot[t, j, u] = 1 where
    bins_j[t] == u, and, for "cmi" only, labels[t, v] = 1 where y[t] is the
    v-th label value."""

    kind: str
    bins: list[np.ndarray]
    y: np.ndarray
    onehot: np.ndarray  # (n, m, c)
    labels: np.ndarray | None  # (n, k)


def _encode(embeddings, labels: np.ndarray, num_classes: int, kind: str) -> _OneHot:
    if kind not in VALID_KINDS:
        raise InputError(f"penalty kind must be one of {VALID_KINDS}; got {kind!r}")
    y = np.asarray(labels).ravel()
    bins = _quantize_all(embeddings, num_classes)
    onehot = (np.stack(bins, axis=1)[:, :, None] == np.arange(num_classes)).astype(np.float64)
    if kind == "mi":
        return _OneHot(kind, bins, y, onehot, None)
    if y.size != onehot.shape[0]:
        raise InputError(f"length mismatch: {onehot.shape[0]} vs {y.size}")
    values, codes = np.unique(y, return_inverse=True)
    label_onehot = (codes.reshape(-1, 1) == np.arange(values.size)).astype(np.float64)
    return _OneHot(kind, bins, y, onehot, label_onehot)


def _mi_tables(joint: np.ndarray) -> np.ndarray:
    """I(a; b) of every joint distribution joint[:, :, ...] (a on axis 0, b on
    axis 1, one table per trailing index).

    The float arithmetic is mutual_information's: marginals summed in index
    order, then pij * log(pij / (pa * pb)) added over the cells in row-major
    order, one vectorized add per cell. An empty cell adds an exact 0.0, so a
    table over all bin values gives the bits of the table over the values
    present. (numpy's own row sum goes pairwise at 8 or more values present,
    so there the two may differ in the last bit.)
    """
    r, s = joint.shape[:2]
    pa = joint[:, 0].copy()
    for v in range(1, s):
        pa += joint[:, v]
    pb = joint[0].copy()
    for u in range(1, r):
        pb += joint[u]
    total = np.zeros(joint.shape[2:])
    for u in range(r):
        for v in range(s):
            pij = joint[u, v]
            ratio = np.divide(pij, pa[u] * pb[v], out=np.ones_like(pij), where=pij > 0.0)
            total += pij * np.log(ratio)
    return total


def _directed(enc: _OneHot, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """D[a, b] = I(bins_i; bins_j) ("mi") or I(bins_i; y | bins_j) ("cmi") for
    i = rows[a], j = cols[b], evaluated like mutual_information / conditional_mi.

    The contingency tables of every pair come from one product of one-hot
    encodings per row block: onehot_iᵀ·onehot_j counts (bins_i, bins_j), and
    (onehot_i ⊗ labels)ᵀ·onehot_j counts (bins_i, y, bins_j). The counts are
    sums of 0/1 products, so they are exact in any summation order. einsum
    computes the product in numpy's own loop and writes the tables' cells
    outermost: BLAS would be faster at large m, but it keeps its packing
    buffer resident (about 0.5 MB, which showed in a select's peak RSS), and
    an unpinned BLAS thread pool made each small product cost milliseconds on
    a 2-vCPU machine.
    """
    n, _, c = enc.onehot.shape
    k = 1 if enc.kind == "mi" else enc.labels.shape[1]
    # Fancy indexing on axis 1 returns strided copies, on which einsum runs
    # about 10x slower than on contiguous ones.
    right = np.ascontiguousarray(enc.onehot[:, cols])
    step = max(1, _BLOCK_ELEMENTS // max(1, len(cols) * c * k * c))
    out = np.empty((len(rows), len(cols)))
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        left = np.ascontiguousarray(enc.onehot[:, rows[block]])
        if enc.kind == "mi":
            joint = np.einsum("tiu,tjz->uzij", left, right)
            joint /= n
            out[block] = _mi_tables(joint)
            continue
        left = left[..., None] * enc.labels[:, None, None, :]
        joint = np.einsum("tiuv,tjz->uvijz", left, right)
        # Strata are the values z of bins_j, summed in ascending order; an
        # empty stratum has all-zero counts and adds 0 * 0.
        sizes = joint.sum(axis=(0, 1))
        joint /= np.maximum(sizes, 1.0)
        mi = _mi_tables(joint)
        total = np.zeros(sizes.shape[:2])
        for z in range(c):
            total += sizes[..., z] / n * mi[..., z]
        out[block] = total
    return out


def _pairs(enc: _OneHot, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """P[a, b] = the penalty entry of the pair (rows[a], cols[b]), row feature
    first: I(bins_i; bins_j) for "mi", and for "cmi" the symmetrized
    0.5 * (I(bins_i; y | bins_j) + I(bins_j; y | bins_i))."""
    forward = _directed(enc, rows, cols)
    if enc.kind == "mi":
        return forward
    backward = forward if np.array_equal(rows, cols) else _directed(enc, cols, rows)
    return 0.5 * (forward + backward.T)


def _symmetric_block(enc: _OneHot, features: np.ndarray) -> np.ndarray:
    """Exact block over features: the upper triangle's pair entries (the
    lower-indexed feature first) mirrored below, and the diagonal entries."""
    out = np.triu(_pairs(enc, features, features), 1)
    out += out.T
    out[np.diag_indices_from(out)] = [_diag_entry(enc.kind, enc.bins[i], enc.y) for i in features]
    return out


def build_redundancy(embeddings, labels: np.ndarray, num_classes: int, kind: str) -> RedundancyMatrix:
    """Exact m x m redundancy matrix over quantized embeddings."""
    enc = _encode(embeddings, labels, num_classes, kind)
    return RedundancyMatrix(kind=kind, values=_symmetric_block(enc, np.arange(len(enc.bins))))


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
    enc = _encode(embeddings, labels, num_classes, kind)
    m = len(enc.bins)
    if not 1 <= s <= m:
        raise InputError(f"landmark count must satisfy 1 <= s <= {m}; got {s}")
    rng = np.random.default_rng(seed)
    landmarks = np.sort(rng.choice(m, size=s, replace=False))
    rest = np.setdiff1d(np.arange(m), landmarks)
    A = _symmetric_block(enc, landmarks)
    B = _pairs(enc, landmarks, rest)

    approx = np.zeros((m, m), dtype=np.float64)
    order = np.concatenate([landmarks, rest])
    block = np.block([[A, B], [B.T, nystrom_complete(A, B)]])
    block = 0.5 * (block + block.T)
    approx[np.ix_(order, order)] = block
    return RedundancyMatrix(kind=kind, values=approx, landmarks=tuple(int(i) for i in landmarks))


def psd_shift(R: RedundancyMatrix) -> RedundancyMatrix:
    """Add gamma * I with gamma = max(0, -lambda_min) + 1e-9, recording gamma.

    lambda_min comes from one dense eigvalsh at every size, so the shifted
    matrix is positive semidefinite up to eigvalsh's rounding and the
    selection problem stays convex. The cost is O(m^3): about 1 s at m = 2100
    on one core of a 2-vCPU Xeon.
    """
    values = np.asarray(R.values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise InputError("redundancy matrix contains non-finite entries")
    gamma = max(0.0, -float(np.linalg.eigvalsh(values)[0])) + 1e-9
    shifted = values + gamma * np.eye(values.shape[0])
    return RedundancyMatrix(kind=R.kind, values=shifted, gamma=gamma, landmarks=R.landmarks)
