"""Per-feature pairwise distances: DTW for series, |a-b| for scalars, 0/1 for tokens.

DTW uses the standard O(len(s) * len(t)) dynamic program with steps
(i+1, j), (i, j+1), (i+1, j+1) and element cost |s_i - t_j|. Pairs with the
same grid shape are swept together along anti-diagonals in skewed
(diagonal-major) order: the pairs are the last, contiguous axis, each
anti-diagonal is a row range of a (len(s) + 1, pairs) buffer, and its up, left
and diag neighbours are plain slices of the two previous diagonals' buffers.
The costs are streamed: each diagonal's |s_i - t_j| is a slice of the stacked
first series minus a slice of the stacked, reversed second series, so no
(pairs, len(s), len(t)) grid is ever built. Every cell is
cost + min(up, left, diag), which makes the result bit-identical regardless of
evaluation order or batching.

Where a C compiler is available, the same cells are computed by _dtw.c, one
call per feature, row by row, with the pairs sorted by shape so that it can
run eight pairs of one shape side by side. It is compiled on the first DTW
call into the package's __pycache__ and used only if it matches the numpy
sweep bit for bit on a fixed self-check; otherwise, or if it cannot be built
or loaded, the numpy sweep runs. Both give the same bits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, FeatureKind, SeriesColumn, fingerprint
from .errors import InputError

# Cap on float64 elements per DTW batch (~2 MB, so a batch stays in a core's
# L2 cache): a batch of p pairs of a-by-b grids holds p * (a + b + 3 * (a + 1))
# of them (the stacked series and the three diagonal buffers).
_BATCH_ELEMENTS = 1 << 18

_KERNEL_SOURCE = Path(__file__).with_name("_dtw.c")
# Where the compiled kernel is cached: next to CPython's own bytecode cache.
_KERNEL_DIR = Path(__file__).with_name("__pycache__")
_COMPILE = ("cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
_LANES = 8  # LANES in _dtw.c: pairs of one shape it runs side by side
_UNLOADED = object()
_kernel = _UNLOADED  # the compiled kernel, or None for the numpy sweep
_kernel_lock = threading.Lock()


@dataclass
class DistanceMatrix:
    feature_id: int
    values: np.ndarray  # n x n, symmetric, zero diagonal, nonnegative


def _check_sequence(x, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{what}: sequence must be nonempty and one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what}: non-finite value in sequence")
    return arr


def _check_window(window: int | None) -> None:
    if window is not None and window < 0:
        raise InputError(f"DTW window must be nonnegative; got {window}")


def _sweep(a: int, b: int, p: int, cost_diagonal, window: int | None) -> np.ndarray:
    """The DTW dynamic program for p pairs of a-by-b grids, one anti-diagonal at a time.

    Cell (i, j) (1-based) of anti-diagonal k = i + j lives at row i of a
    (a + 1, p) buffer, so its up, left and diag neighbours are the plain slices
    prev1[i - 1], prev1[i] and prev2[i - 1]. cost_diagonal(k, lo, hi) returns
    the (hi - lo + 1, p) costs of rows lo..hi of diagonal k. Rows outside the
    warp band |i - j| <= max(window, |a - b|) are never written and stay inf.
    """
    w = a + b if window is None else max(int(window), abs(a - b))
    prev2, prev1, cur = (np.full((a + 1, p), np.inf) for _ in range(3))
    prev2[0] = 0.0
    best = np.empty((min(a, b), p))
    # Lowest row written to each buffer's diagonal; rows below it must read inf.
    lo2, lo1, stale = 0, 0, 0
    for k in range(2, a + b + 1):
        lo = max(1, k - b, (k - w + 1) // 2)
        hi = min(a, k - 1, (k + w) // 2)
        cur[stale:lo] = np.inf
        if lo <= hi:
            step = best[: hi - lo + 1]
            np.minimum(prev1[lo - 1 : hi], prev1[lo : hi + 1], out=step)
            np.minimum(step, prev2[lo - 1 : hi], out=step)
            np.add(cost_diagonal(k, lo, hi), step, out=cur[lo : hi + 1])
        prev2, prev1, cur = prev1, cur, prev2
        stale, lo2, lo1 = lo2, lo1, lo
    return prev1[a].copy()


def _dtw_batch(costs: np.ndarray) -> np.ndarray:
    """Minimum warp-path cost for a (pairs, a, b) stack of cost grids."""
    p, a, b = costs.shape
    grid = np.ascontiguousarray(costs.transpose(1, 2, 0))

    def cost_diagonal(k, lo, hi):
        ii = np.arange(lo, hi + 1)
        return grid[ii - 1, k - ii - 1]

    return _sweep(a, b, p, cost_diagonal, None)


def _dtw_stacked(S: np.ndarray, T: np.ndarray, window: int | None) -> np.ndarray:
    """DTW between the columns of S (a, pairs) and T (b, pairs), pair by pair.

    The costs |s_i - t_j| of one anti-diagonal are a slice of S minus a slice
    of T reversed, so they are computed as their diagonal is swept and no
    (a, b) cost grid is built.
    """
    (a, p), b = S.shape, T.shape[0]
    T_rev = np.ascontiguousarray(T[::-1])
    diff = np.empty((min(a, b), p))

    def cost_diagonal(k, lo, hi):
        out = diff[: hi - lo + 1]
        np.subtract(S[lo - 1 : hi], T_rev[b - k + lo : b - k + hi + 1], out=out)
        return np.abs(out, out=out)

    return _sweep(a, b, p, cost_diagonal, window)


def dtw(s, t, window: int | None = None) -> float:
    """DTW distance between two finite real sequences.

    window limits the warp band to |i - j| <= max(window, |len(s) - len(t)|);
    None (the default) leaves the path unconstrained.
    """
    _check_window(window)
    s = _check_sequence(s, "dtw first argument")
    t = _check_sequence(t, "dtw second argument")
    kernel = _compiled_kernel()
    if kernel is not None:
        return float(kernel(SeriesColumn.concat([s, t]), window)[0, 1])
    return float(_dtw_stacked(s[:, None], t[:, None], window)[0])


def scalar_distance(a: float, b: float) -> float:
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InputError("scalar distance requires finite inputs")
    return abs(a - b)


def categorical_distance(a: str, b: str) -> float:
    """0 iff the tokens are exactly equal (case-sensitive), else 1."""
    return 0.0 if a == b else 1.0


def znormalize(x: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance copy; constant series map to all zeros."""
    x = np.asarray(x, dtype=np.float64)
    sd = float(x.std())
    if sd == 0.0:
        return np.zeros_like(x)
    return (x - x.mean()) / sd


def _numpy_matrix(series: list[np.ndarray], window: int | None) -> np.ndarray:
    """Upper triangle of the DTW matrix from the numpy sweep, pairs batched by shape."""
    n = len(series)
    out = np.zeros((n, n), dtype=np.float64)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            groups.setdefault((len(series[i]), len(series[j])), []).append((i, j))
    for (a, b), pairs in groups.items():
        chunk = max(1, _BATCH_ELEMENTS // (a + b + 3 * (a + 1)))
        for start in range(0, len(pairs), chunk):
            block = pairs[start : start + chunk]
            S = np.stack([series[i] for i, _ in block], axis=1)
            T = np.stack([series[j] for _, j in block], axis=1)
            rows, cols = zip(*block)
            out[rows, cols] = _dtw_stacked(S, T, window)
    return out


def _compiled_matrix(dtw_pairs, column: SeriesColumn, window: int | None) -> np.ndarray:
    """Upper triangle of the DTW matrix from one call into _dtw.c's dtw_pairs."""
    values, offsets, lengths = column.values, column.offsets, column.lengths
    n = lengths.size
    first, second = np.triu_indices(n, 1)
    # Pairs of one shape next to each other, so the kernel can run them side by side.
    order = np.lexsort((lengths[second], lengths[first]))
    first, second = (np.ascontiguousarray(ix[order], dtype=np.int64) for ix in (first, second))
    out = np.empty(first.size)
    rows = np.empty(_LANES * (4 * int(lengths.max(initial=0)) + 2))
    # No pair's |i - j| reaches the total length, so it stands for "unconstrained".
    total = int(values.size)
    band = total if window is None else min(int(window), total)
    dtw_pairs(values.ctypes.data, offsets.ctypes.data, lengths.ctypes.data,
              first.ctypes.data, second.ctypes.data, first.size, band,
              out.ctypes.data, rows.ctypes.data)
    upper = np.zeros((n, n))
    upper[first, second] = out
    return upper


def _self_check(kernel) -> bool:
    """Whether kernel matches the numpy sweep bit for bit on a fixed case with
    unequal lengths, windows narrower than those differences and length-1 series.

    Ten distinct 3-long series give the kernel's lane path full and partial
    groups of shape (3, 3), and groups with a < b and a > b against the
    earlier series, such as (1, 3) and (7, 3)."""
    lengths = (1, 4, 7, 2, 1, 5, 3) + (3,) * 9
    series = [np.cos(np.arange(L) * 2.3 + k) * L for k, L in enumerate(lengths)]
    column = SeriesColumn.concat(series)
    return all(
        kernel(column, window).tobytes() == _numpy_matrix(series, window).tobytes()
        for window in (None, 0, 2)
    )


def _kernel_path(directory: Path) -> Path:
    """The kernel's file name hashes its source, the compile command and the
    interpreter/platform tag, so a stale or foreign build is never picked up."""
    import sysconfig

    key = b"\0".join([
        _KERNEL_SOURCE.read_bytes(),
        " ".join(_COMPILE).encode(),
        str(sysconfig.get_config_var("EXT_SUFFIX")).encode(),
    ])
    return directory / f"_dtw-{hashlib.sha256(key).hexdigest()[:16]}.so"


def _build(path: Path) -> None:
    """Compile _dtw.c to a temp file unique to this call, then rename it into place."""
    import subprocess

    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([*_COMPILE, "-o", tmp, str(_KERNEL_SOURCE)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):  # a failed link may remove it
            os.unlink(tmp)
        raise


def _load_kernel(directory: Path):
    """The compiled kernel built or found in directory, or None if it cannot be
    built or loaded or fails the self-check."""
    import ctypes
    import subprocess

    try:
        path = _kernel_path(directory)
        if not path.is_file():
            _build(path)
        try:
            library = ctypes.CDLL(str(path))
        except OSError:  # not a loadable library: rebuild it once
            _build(path)
            library = ctypes.CDLL(str(path))
        dtw_pairs = library.dtw_pairs
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    dtw_pairs.restype = None
    dtw_pairs.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 2

    def kernel(column, window):
        return _compiled_matrix(dtw_pairs, column, window)

    return kernel if _self_check(kernel) else None


def _compiled_kernel():
    """The compiled kernel, loaded on the first call in this process, or None
    where the numpy sweep must run."""
    global _kernel
    with _kernel_lock:
        if _kernel is _UNLOADED:
            _kernel = _load_kernel(_KERNEL_DIR)
        return _kernel


def _timeseries_matrix(column: SeriesColumn, window: int | None) -> np.ndarray:
    kernel = _compiled_kernel()
    return _numpy_matrix(column.series(), window) if kernel is None else kernel(column, window)


def distance_matrix(
    ds: Dataset,
    feature_id: int,
    window: int | None = None,
    znorm: bool = False,
) -> DistanceMatrix:
    """Pairwise distances between all segments under the feature's metric.

    Only the upper triangle is computed; the lower triangle mirrors it exactly,
    so the matrix is bitwise symmetric with a zero diagonal.
    """
    _check_window(window)
    if not 0 <= feature_id < ds.m:
        raise InputError(f"feature id {feature_id} out of range [0, {ds.m})")
    desc, column = ds.descriptors[feature_id], ds.columns[feature_id]
    bad = ds.first_nonfinite(feature_id)
    if bad is not None:
        problem = "non-finite value in sequence" if desc.kind is FeatureKind.TIMESERIES else (
            "scalar distance requires finite inputs")
        raise InputError(f"feature {desc.name!r} segment {ds.segments[bad].id}: {problem}")
    if desc.kind is FeatureKind.TIMESERIES:
        if znorm:
            column = SeriesColumn.concat([znormalize(x) for x in column.series()])
        upper = _timeseries_matrix(column, window)
    elif desc.kind is FeatureKind.SCALAR:
        upper = np.triu(np.abs(np.subtract.outer(column, column)), 1)
    else:
        tokens = np.array(column, dtype=object)
        upper = np.triu(np.not_equal.outer(tokens, tokens), 1).astype(np.float64)
    values = upper + upper.T
    return DistanceMatrix(feature_id=feature_id, values=values)


def cache_signature(ds: Dataset, window: int | None, znorm: bool) -> str:
    """Directory key combining dataset content and metric parameters."""
    text = f"{fingerprint(ds)}|window={window}|znorm={znorm}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _format_matrix(values: np.ndarray) -> str:
    """values as CSV rows of repr(float) tokens, each distinct bit pattern
    formatted once: a distance matrix holds each value twice, mirrored."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    tokens = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    table = tokens[inverse].reshape(values.shape).tolist()
    return "".join(",".join(row) + "\n" for row in table)


def _write_matrix(path: Path, values: np.ndarray) -> None:
    """Write through a temp file unique to this call, then rename it into place,
    so concurrent writers sharing a cache directory never mix their bytes."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_format_matrix(values))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_matrix(path: Path, n: int) -> np.ndarray:
    """Load a cached matrix, rejecting any file that is not a valid distance matrix."""
    values = np.empty((0, 0))  # what an empty file holds; numpy would warn on it
    try:
        text = path.read_text(encoding="utf-8")
        if text.strip("\n"):
            values = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2, comments=None)
    except ValueError:  # including a file that is not UTF-8
        raise InputError(f"cached matrix {path} is not a table of decimal reals") from None
    if values.shape != (n, n):
        raise InputError(f"cached matrix {path} has shape {values.shape}, expected {(n, n)}")
    if not np.all(np.isfinite(values)):
        raise InputError(f"cached matrix {path} has a non-finite value")
    if np.any(values < 0):
        raise InputError(f"cached matrix {path} has a negative value")
    if not np.array_equal(values.view(np.uint64), values.T.view(np.uint64)):
        raise InputError(f"cached matrix {path} is not bitwise symmetric")
    if np.any(np.diag(values) != 0):
        raise InputError(f"cached matrix {path} has a nonzero diagonal")
    return values


def cached_distance_matrix(
    ds: Dataset,
    feature_id: int,
    cache_dir,
    window: int | None = None,
    znorm: bool = False,
) -> DistanceMatrix:
    """distance_matrix() with a per-feature CSV cache under cache_dir.

    Layout: <cache_dir>/<signature>/M_<feature_id>.csv, full n x n matrix with
    round-trip-exact decimal reals. Writes are atomic (unique tmp file + rename);
    reads reject a file that is not a finite, nonnegative, bitwise-symmetric
    matrix with a zero diagonal.
    """
    _check_window(window)
    if cache_dir is None:
        return distance_matrix(ds, feature_id, window=window, znorm=znorm)
    sig_dir = Path(cache_dir) / cache_signature(ds, window, znorm)
    path = sig_dir / f"M_{feature_id}.csv"
    if path.is_file():
        return DistanceMatrix(feature_id=feature_id, values=_read_matrix(path, ds.n))
    result = distance_matrix(ds, feature_id, window=window, znorm=znorm)
    sig_dir.mkdir(parents=True, exist_ok=True)
    _write_matrix(path, result.values)
    return result
