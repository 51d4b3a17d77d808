"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the definitions (path
enumeration, contingency tables, explicit grid search, plain loops) rather
than sharing code with the implementations under test.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# DTW: exhaustive warp-path enumeration.


@lru_cache(maxsize=None)
def warp_paths(a: int, b: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All monotone warp paths from (0, 0) to (a-1, b-1) on an a x b grid."""
    if a == 1 and b == 1:
        return (((0, 0),),)
    paths = []
    if a > 1:
        for p in warp_paths(a - 1, b):
            paths.append(p + ((a - 1, b - 1),))
    if b > 1:
        for p in warp_paths(a, b - 1):
            paths.append(p + ((a - 1, b - 1),))
    if a > 1 and b > 1:
        for p in warp_paths(a - 1, b - 1):
            paths.append(p + ((a - 1, b - 1),))
    return tuple(paths)


def dtw_brute(s, t, window=None) -> float:
    """Minimum warp-path cost by full enumeration.

    With a window, only paths whose every step keeps |i - j| <= max(window,
    |len(s) - len(t)|) count.
    """
    s = list(s)
    t = list(t)
    band = None if window is None else max(window, abs(len(s) - len(t)))
    best = math.inf
    for path in warp_paths(len(s), len(t)):
        if band is not None and any(abs(i - j) > band for i, j in path):
            continue
        cost = sum(abs(s[i] - t[j]) for i, j in path)
        best = min(best, cost)
    return best


def dtw_brute_optimal_lengths(s, t) -> list[int]:
    """Lengths of every optimal warp path (for the path-length bound check)."""
    s = list(s)
    t = list(t)
    costs = {}
    for path in warp_paths(len(s), len(t)):
        costs[path] = sum(abs(s[i] - t[j]) for i, j in path)
    best = min(costs.values())
    return [len(p) for p, c in costs.items() if c == best]


class PathTable:
    """Vectorized exhaustive path sums for one grid shape.

    Paths are stored as flat indices into the cost grid, padded with a slot
    that always holds zero cost, so per-pair evaluation is one fancy-indexed
    sum over all paths.
    """

    def __init__(self, a: int, b: int):
        paths = warp_paths(a, b)
        width = max(len(p) for p in paths)
        pad = a * b  # index of the appended zero element
        idx = np.full((len(paths), width), pad, dtype=np.intp)
        for r, p in enumerate(paths):
            idx[r, : len(p)] = [i * b + j for i, j in p]
        self.a, self.b = a, b
        self.idx = idx
        self.lengths = np.array([len(p) for p in paths])

    def evaluate(self, s: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
        """(minimum cost, lengths of the optimal paths)."""
        cost = np.abs(s[:, None] - t[None, :])
        flat = np.append(cost.ravel(), 0.0)
        sums = flat[self.idx].sum(axis=1)
        best = sums.min()
        return float(best), self.lengths[sums == best]


# ---------------------------------------------------------------------------
# Information measures from explicit contingency tables.


def entropy_brute(bins) -> float:
    bins = list(bins)
    n = len(bins)
    total = 0.0
    for count in Counter(bins).values():
        p = count / n
        total -= p * math.log(p)
    return total


def mi_brute(a, b) -> float:
    a = list(a)
    b = list(b)
    n = len(a)
    joint = Counter(zip(a, b))
    pa = Counter(a)
    pb = Counter(b)
    total = 0.0
    for (x, y), count in joint.items():
        pxy = count / n
        total += pxy * math.log(pxy / ((pa[x] / n) * (pb[y] / n)))
    return total


def cmi_brute(a, b, c) -> float:
    a = list(a)
    b = list(b)
    c = list(c)
    n = len(a)
    total = 0.0
    for z in set(c):
        sel = [i for i in range(n) if c[i] == z]
        total += (len(sel) / n) * mi_brute([a[i] for i in sel], [b[i] for i in sel])
    return total


def nmi_from_bins_brute(bins, y) -> float:
    hb = entropy_brute(bins)
    if hb == 0.0:
        return 0.0
    return mi_brute(bins, y) / math.sqrt(hb * entropy_brute(y))


def redundancy_brute(bins, y, kind: str) -> np.ndarray:
    """Redundancy matrix over already-quantized features, one pair at a time.

    Unlike the rest of this module it calls the package's scalar measures
    (themselves checked against mi_brute / cmi_brute / entropy_brute), so the
    count-matrix kernel can be held to the pair loop's exact bits.
    """
    from mts_select.info import conditional_mi, entropy, mutual_information

    y = np.asarray(y).ravel()
    m = len(bins)
    out = np.zeros((m, m), dtype=np.float64)
    for i in range(m):
        out[i, i] = entropy(bins[i]) if kind == "mi" else mutual_information(bins[i], y)
        for j in range(i + 1, m):
            if kind == "mi":
                v = mutual_information(bins[i], bins[j])
            else:
                v = 0.5 * (conditional_mi(bins[i], y, bins[j]) + conditional_mi(bins[j], y, bins[i]))
            out[i, j] = v
            out[j, i] = v
    return out


# ---------------------------------------------------------------------------
# Solver: exact minimum of the objective over a regular grid.


def grid_search_objective(columns, target, penalty, lam, beta, hi=3.0, step=1e-3):
    """Exact minimum of the solver objective over the grid [0, hi]^m, m <= 3.

    All axes but the last are enumerated; along the last axis the objective is
    a convex quadratic, so its grid minimum sits at a grid neighbor of the
    vertex (or at a clamped endpoint), which the search checks exactly. The
    enumeration of the earlier axes is vectorized, which changes nothing about
    which grid points are examined.
    """
    H = np.asarray(columns, dtype=np.float64)
    h = np.asarray(target, dtype=np.float64)
    P = np.asarray(penalty, dtype=np.float64)
    m = H.shape[1]
    if m > 3:
        raise ValueError("grid oracle supports at most three features")
    G = H.T @ H
    c = H.T @ h
    const = 0.5 * float(h @ h)
    M = G + 2.0 * beta * P  # curvature of the smooth part
    lin = lam - c  # gradient of (lam * sum(a) - c @ a)

    axis = np.arange(0.0, hi + step / 2, step)
    top = float(axis[-1])
    k = m - 1
    quad = float(M[k, k])

    def last_axis_min_vec(base: np.ndarray, slope: np.ndarray) -> np.ndarray:
        """Grid minimum over the last coordinate for a batch of prefixes."""
        candidates = [np.zeros_like(slope), np.full_like(slope, top)]
        if quad > 0.0:
            vertex = -slope / quad
            snapped = np.clip(np.floor(vertex / step) * step, 0.0, top)
            candidates += [snapped, np.clip(snapped + step, 0.0, top)]
        best = np.full_like(slope, math.inf)
        for x in candidates:
            np.minimum(best, base + slope * x + 0.5 * quad * x * x, out=best)
        return best

    if m == 1:
        value = last_axis_min_vec(np.array([const]), np.array([lin[0]]))
        return float(value[0])
    if m == 2:
        a0 = axis
        base = const + lin[0] * a0 + 0.5 * M[0, 0] * a0 * a0
        slope = lin[1] + M[1, 0] * a0
        return float(last_axis_min_vec(base, slope).min())
    best = math.inf
    a1 = axis
    for a0 in axis:
        base = (
            const
            + lin[0] * a0
            + lin[1] * a1
            + 0.5 * (M[0, 0] * a0 * a0 + 2.0 * M[0, 1] * a0 * a1 + M[1, 1] * a1 * a1)
        )
        slope = lin[2] + M[2, 0] * a0 + M[2, 1] * a1
        best = min(best, float(last_axis_min_vec(base, slope).min()))
    return best


# ---------------------------------------------------------------------------
# Power iteration, written with plain loops.


def power_iteration_reference(W: np.ndarray, epsilon: float, max_iter: int, seed: int):
    """Reference embedding loop; returns (iterates, iterations_used)."""
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    N = np.zeros_like(W)
    for i in range(n):
        s = W[i].sum()
        for j in range(n):
            N[i, j] = W[i, j] / s
    rng = np.random.default_rng(seed)
    v = rng.random(n)
    v = v / v.sum()
    iterates = [v.copy()]
    if max_iter <= 0:
        return iterates, 0
    delta_prev = None
    used = max_iter
    for t in range(1, max_iter + 1):
        u = np.array([sum(N[i, j] * v[j] for j in range(n)) for i in range(n)])
        v_next = u / np.abs(u).sum()
        delta = np.abs(v_next - v)
        v = v_next
        iterates.append(v.copy())
        if delta_prev is not None and float(np.max(np.abs(delta - delta_prev))) <= epsilon:
            used = t
            break
        delta_prev = delta
    return iterates, used
