"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the definitions (path
enumeration, contingency tables, explicit grid search, plain loops) rather
than sharing code with the implementations under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np

from mts_select.dataset import (
    Dataset,
    FeatureDescriptor,
    FeatureKind,
    Segment,
    validate_dataset,
)
from mts_select.errors import InputError


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
# Solver: the least-squares design written out, and the exact minimum of the
# objective over a regular grid.


def design_columns(graphs, target) -> tuple[np.ndarray, np.ndarray]:
    """(H, h): column j of H is graph j read row by row, h the label graph
    read the same way, entry by entry."""
    n = len(target)
    cells = [(i, j) for i in range(n) for j in range(n)]
    H = np.array([[float(W[i][j]) for W in graphs] for i, j in cells])
    h = np.array([float(target[i][j]) for i, j in cells])
    return H, h


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
# k-NN graph, one row at a time.


def knn_graph_rows(distances, k: int) -> np.ndarray:
    """Row i marks its k nearest columns j != i, taken from one stable argsort
    of row i with the diagonal masked to inf."""
    masked = np.array(distances, dtype=np.float64)
    np.fill_diagonal(masked, np.inf)
    out = np.zeros_like(masked)
    for i in range(masked.shape[0]):
        order = np.argsort(masked[i], kind="stable")
        out[i, order[:k]] = 1.0
    return out


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


# ---------------------------------------------------------------------------
# Dataset loading and hashing, row by row: the loader and the content hash as
# they were before the columnar Dataset.


def _read_csv(path: Path, expected_header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: file is empty") from None
        if header != expected_header:
            raise InputError(f"{path}: expected header {','.join(expected_header)!r}")
        return [row for row in reader if row]


def _parse_int(token: str, path: Path, row: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"{path} row {row}: unparsable integer {token!r}") from None


def _parse_real(token: str, path: Path, row: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise InputError(f"{path} row {row}: unparsable value {token!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{path} row {row}: non-finite value {token!r}")
    return value


def load_dataset_rows(root_path) -> Dataset:
    """load_dataset with csv and Python int()/float() on every row."""
    root = Path(root_path)
    meta_path = root / "meta.json"
    if not meta_path.is_file():
        raise InputError(f"meta file not found: {meta_path}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{meta_path}: invalid JSON ({exc})") from None
    features = meta.get("features")
    if not isinstance(features, list) or not features:
        raise InputError(f"{meta_path}: 'features' must be a nonempty list")
    descriptors = []
    for j, entry in enumerate(features):
        name = entry.get("name")
        kind = entry.get("kind")
        if not isinstance(name, str) or not re.match(r"^[A-Za-z0-9._-]+$", name):
            raise InputError(f"{meta_path}: feature {j} has invalid name {name!r}")
        try:
            kind = FeatureKind(kind)
        except ValueError:
            raise InputError(f"{meta_path}: feature {name!r} has unknown kind {kind!r}") from None
        descriptors.append(FeatureDescriptor(j, name, kind))

    labels_path = root / "labels.csv"
    if not labels_path.is_file():
        raise InputError(f"labels file not found: {labels_path}")
    label_rows = _read_csv(labels_path, ["segment_id", "label"])
    labels: dict[int, str] = {}
    classes: list[str] = []
    for r, row in enumerate(label_rows, start=2):
        if len(row) != 2:
            raise InputError(f"{labels_path} row {r}: expected 2 fields")
        sid = _parse_int(row[0], labels_path, r)
        if sid in labels:
            raise InputError(f"{labels_path} row {r}: duplicate segment_id {sid}")
        labels[sid] = row[1]
        if row[1] not in classes:
            classes.append(row[1])
    n = len(labels)
    if set(labels) != set(range(n)):
        raise InputError(f"{labels_path}: segment ids must be exactly 0..{n - 1}")

    values: list[list] = [[None] * len(descriptors) for _ in range(n)]
    for d in descriptors:
        vpath = root / "values" / f"{d.name}.csv"
        if not vpath.is_file():
            raise InputError(f"values file not found for feature {d.name!r}: {vpath}")
        if d.kind is FeatureKind.TIMESERIES:
            rows = _read_csv(vpath, ["segment_id", "t", "value"])
            per_segment: dict[int, dict[int, float]] = {}
            for r, row in enumerate(rows, start=2):
                if len(row) != 3:
                    raise InputError(f"{vpath} row {r}: expected 3 fields")
                sid = _parse_int(row[0], vpath, r)
                t = _parse_int(row[1], vpath, r)
                if sid not in labels:
                    raise InputError(f"{vpath} row {r}: unknown segment_id {sid}")
                samples = per_segment.setdefault(sid, {})
                if t in samples:
                    raise InputError(f"{vpath} row {r}: duplicate sample index {t} for segment {sid}")
                samples[t] = _parse_real(row[2], vpath, r)
            for sid in range(n):
                samples = per_segment.get(sid)
                if not samples:
                    raise InputError(f"segment {sid} lacks feature {d.name!r} ({vpath})")
                length = len(samples)
                if set(samples) != set(range(length)):
                    raise InputError(
                        f"{vpath}: segment {sid} sample indices must be exactly 0..{length - 1}"
                    )
                values[sid][d.id] = np.array([samples[t] for t in range(length)], dtype=np.float64)
        else:
            rows = _read_csv(vpath, ["segment_id", "value"])
            seen: dict[int, object] = {}
            for r, row in enumerate(rows, start=2):
                if len(row) != 2:
                    raise InputError(f"{vpath} row {r}: expected 2 fields")
                sid = _parse_int(row[0], vpath, r)
                if sid not in labels:
                    raise InputError(f"{vpath} row {r}: unknown segment_id {sid}")
                if sid in seen:
                    raise InputError(f"{vpath} row {r}: duplicate segment_id {sid}")
                if d.kind is FeatureKind.SCALAR:
                    seen[sid] = _parse_real(row[1], vpath, r)
                else:
                    seen[sid] = row[1]
            for sid in range(n):
                if sid not in seen:
                    raise InputError(f"segment {sid} lacks feature {d.name!r} ({vpath})")
                values[sid][d.id] = seen[sid]

    segments = tuple(Segment(i, tuple(values[i]), labels[i]) for i in range(n))
    ds = Dataset(
        descriptors=tuple(descriptors),
        segments=segments,
        classes=tuple(classes),
        train_ids=tuple(range(n)),
        test_ids=(),
    )
    return validate_dataset(ds)


def fingerprint_brute(ds: Dataset) -> str:
    """The length-prefixed content hash, built by walking the segments."""
    h = hashlib.sha256()
    h.update(np.array([ds.n, *(seg.id for seg in ds.segments)], dtype="<i8"))
    columns = list(zip(*(seg.values for seg in ds.segments)))
    for d in ds.descriptors:
        h.update(f"F|{d.name}|{d.kind.value}\n".encode("utf-8"))
        column = columns[d.id]
        if d.kind is FeatureKind.TIMESERIES:
            lengths = [v.size for v in column]
            data = np.concatenate(column).astype("<f8").tobytes()
        elif d.kind is FeatureKind.SCALAR:
            lengths = [1] * len(column)
            data = np.array(column, dtype="<f8").tobytes()
        else:
            tokens = [str(v).encode("utf-8") for v in column]
            lengths = [len(t) for t in tokens]
            data = b"".join(tokens)
        h.update(np.array(lengths, dtype="<i8").tobytes())
        h.update(data)
    return h.hexdigest()
