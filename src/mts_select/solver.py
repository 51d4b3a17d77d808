"""Sparse nonnegative coordinate descent for graph-combination weights.

Minimizes 0.5 * ||h_y - H a||^2 + lambda * ||a||_1 + beta * a^T P a over a >= 0,
where column j of H is the row-major flattening of feature j's similarity
graph, h_y flattens the label graph, and P is a (PSD-shifted) redundancy
penalty. Coordinates are minimized exactly in a fixed cyclic order, which
guarantees a monotone objective and bitwise-reproducible results.

The Gram form is the only representation of the least-squares term
("covariance updates", Friedman, Hastie & Tibshirani 2010): G = H^T H,
c = H^T h_y and h_y^T h_y, accumulated over row blocks of the graphs in
O(m^2 + block) memory. A coordinate step costs O(m), the objective O(m^2).
Similarity graph entries are in {0, 1/2, 1} and label graph entries in
{0, 1}, so G and c are multiples of 1/4, exact in any summation order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError

# Most design entries flatten forms at once; n=60, m=70 (252000) is one block.
BLOCK_ENTRIES = 1 << 18


@dataclass
class FlatDesign:
    gram: np.ndarray  # (m, m), H^T H
    cross: np.ndarray  # (m,), H^T h_y
    target_sq: float  # h_y^T h_y


@dataclass
class SolveResult:
    alpha: np.ndarray
    objective_trace: np.ndarray  # objective after each sweep
    sweeps_used: int
    converged: bool


def flatten(graphs, target: np.ndarray) -> FlatDesign:
    """Gram form of the design H whose column j is graph j, flattened row-major."""
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 2 or target.shape[0] != target.shape[1]:
        raise InputError("target graph must be square")
    n = target.shape[0]
    graphs = [np.asarray(W, dtype=np.float64) for W in graphs]
    for j, W in enumerate(graphs):
        if W.shape != (n, n):
            raise InputError(f"graph {j} has shape {W.shape}, expected {(n, n)}")
    if not graphs:
        raise InputError("need at least one graph")
    m = len(graphs)
    gram, cross = np.zeros((m, m)), np.zeros(m)
    rows = max(1, BLOCK_ENTRIES // max(1, n * m))
    for r in range(0, n, rows):
        block = np.stack([W[r:r + rows].ravel() for W in graphs], axis=1)
        gram += block.T @ block
        cross += block.T @ target[r:r + rows].ravel()
    return FlatDesign(gram=gram, cross=cross, target_sq=float(np.vdot(target, target)))


def objective(
    alpha: np.ndarray,
    design: FlatDesign,
    penalty: np.ndarray,
    lam: float,
    beta: float,
) -> float:
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != design.cross.shape:
        raise InputError("coefficient vector does not match the design")
    residual_sq = design.target_sq - 2.0 * (design.cross @ alpha) + alpha @ design.gram @ alpha
    return float(
        0.5 * residual_sq + lam * np.sum(np.abs(alpha)) + beta * (alpha @ penalty @ alpha)
    )


def coordinate_gradient(
    alpha: np.ndarray,
    k: int,
    design: FlatDesign,
    penalty: np.ndarray,
    beta: float,
) -> float:
    """Derivative of the smooth part along coordinate k.

    (H^T H a)_k - (H^T h_y)_k + 2 * beta * (P a)_k, read off the Gram form in
    O(m).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    return float(design.gram[k] @ alpha - design.cross[k] + 2.0 * beta * (penalty[k] @ alpha))


def prox_l1_nonneg(x: float, step_threshold: float) -> float:
    """Soft-threshold composed with projection onto the nonnegative half-line."""
    return max(0.0, x - step_threshold)


def max_lambda(design: FlatDesign) -> float:
    """Smallest lambda at which coordinate descent from zero stays at zero.

    From zero, the first sweep's gradient along k is exactly -(H^T h_y)_k,
    so the shrinkage comparison is float-exact.
    """
    return float(np.max(np.abs(design.cross)))


def solve(
    design: FlatDesign,
    penalty: np.ndarray,
    lam: float,
    beta: float,
    max_sweeps: int = 10_000,
    tol: float = 1e-8,
) -> SolveResult:
    """Cyclic exact coordinate minimization from a zero start.

    Each coordinate update is a_k <- max(0, z_k a_k - g_k - lambda) / z_k with
    g_k the smooth gradient (coordinate_gradient) and z_k = G_kk + 2 beta P_kk
    its curvature.
    A sweep ends the loop when the largest coordinate change is at most
    tol * (1 + ||a||_inf); running out of max_sweeps first returns the last
    iterate with converged=False and a RuntimeWarning. The per-sweep
    objective is recorded and must be nonincreasing (1e-10 relative slack),
    otherwise ConsistencyError.
    """
    penalty = np.asarray(penalty, dtype=np.float64)
    m = design.cross.shape[0]
    if penalty.shape != (m, m):
        raise InputError(f"penalty matrix has shape {penalty.shape}, expected {(m, m)}")
    if lam < 0 or beta < 0:
        raise InputError("lambda and beta must be nonnegative")

    alpha = np.zeros(m, dtype=np.float64)
    curvature = np.diag(design.gram) + 2.0 * beta * np.diag(penalty)
    trace: list[float] = []
    converged = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        max_change = 0.0
        for k in range(m):
            g = coordinate_gradient(alpha, k, design, penalty, beta)
            z = float(curvature[k])
            if z == 0.0:
                if g != 0.0:
                    raise InputError(
                        f"degenerate coordinate {k}: zero curvature with nonzero gradient"
                    )
                new = 0.0
            else:
                new = prox_l1_nonneg(z * alpha[k] - g, lam) / z
            change = new - alpha[k]
            alpha[k] = new
            max_change = max(max_change, abs(change))
        obj = objective(alpha, design, penalty, lam, beta)
        if trace and obj - trace[-1] > 1e-10 * max(1.0, abs(trace[-1])):
            raise ConsistencyError(
                f"objective increased from {trace[-1]!r} to {obj!r} at sweep {sweep}"
            )
        trace.append(obj)
        if max_change <= tol * (1.0 + float(np.max(np.abs(alpha), initial=0.0))):
            converged = True
            break
    if not converged:
        warnings.warn(
            f"coordinate descent did not converge at lambda={lam!r} within {sweeps} sweeps",
            RuntimeWarning,
            stacklevel=2,
        )
    return SolveResult(
        alpha=alpha,
        objective_trace=np.array(trace),
        sweeps_used=sweeps,
        converged=converged,
    )


def solve_for_support(
    design: FlatDesign,
    penalty: np.ndarray,
    beta: float,
    target_size: int,
    max_sweeps: int = 10_000,
    tol: float = 1e-8,
    support_epsilon: float = 1e-9,
    max_steps: int = 30,
) -> tuple[float, SolveResult]:
    """Bisect lambda so the support size lands on (or nearest) target_size.

    Support size is treated as nonincreasing in lambda; the search runs at
    most max_steps bisections over [0, max_lambda] and returns the candidate
    whose support size is closest to the target (ties prefer the smaller
    support, then the lambda tried first). The redundancy term does not
    guarantee a monotone path, so a RuntimeWarning lists the (lambda, support
    size) path when support grows with lambda.
    """
    if target_size < 0:
        raise InputError("target size must be nonnegative")
    tried: list[tuple[float, int, SolveResult]] = []

    def run(lam: float) -> int:
        res = solve(design, penalty, lam, beta, max_sweeps=max_sweeps, tol=tol)
        size = int(np.sum(res.alpha > support_epsilon))
        tried.append((lam, size, res))
        return size

    hi = max_lambda(design)
    if run(0.0) > target_size:
        run(hi)
        lo = 0.0
        for _ in range(max_steps):
            mid = 0.5 * (lo + hi)
            size_mid = run(mid)
            if size_mid == target_size:
                break
            if size_mid > target_size:
                lo = mid
            else:
                hi = mid
    path = sorted((lam, size) for lam, size, _ in tried)
    if any(a[1] < b[1] for a, b in zip(path, path[1:])):
        warnings.warn(
            f"support size grows with lambda along the bisection path (lambda, size) {path}",
            RuntimeWarning,
            stacklevel=2,
        )
    lam, size, res = min(tried, key=lambda t: (abs(t[1] - target_size), t[1]))
    if size != target_size:
        warnings.warn(
            f"target support size {target_size} not reached; closest achieved is {size}",
            RuntimeWarning,
            stacklevel=2,
        )
    return lam, res
