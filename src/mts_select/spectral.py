"""Graph embedding by early-stopped power iteration.

Iterating v <- N v / ||N v||_1 on the row-normalized adjacency N converges to
the trivial constant eigenvector, but on the way there the iterate is nearly
constant within each graph cluster while clusters still carry distinct values.
Stopping when the per-entry velocity |v_new - v| stops changing captures that
intermediate state as a one-dimensional cluster-structure embedding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import row_normalize


@dataclass
class Embedding:
    values: np.ndarray  # length n, entries sum to 1
    iterations_used: int


def power_iteration_embedding(
    W: np.ndarray,
    epsilon: float | None = None,
    max_iter: int = 1000,
    seed: int = 0,
) -> Embedding:
    """Embed graph vertices by early-stopped power iteration.

    The start vector is drawn i.i.d. uniform on [0, 1) from the seeded
    generator and L1-normalized; every subsequent iterate is L1-normalized as
    well. The loop stops once max_i |delta_t(i) - delta_{t+1}(i)| <= epsilon,
    where delta_t = |v_t - v_{t-1}|, which needs at least two iterations, or
    when max_iter is reached (not an error: the last iterate is returned with
    a RuntimeWarning).

    epsilon defaults to 1e-6 / n.
    """
    N = row_normalize(W)
    n = N.shape[0]
    if epsilon is None:
        epsilon = 1e-6 / n
    rng = np.random.default_rng(seed)
    v = rng.random(n)
    v = v / v.sum()
    if max_iter <= 0:
        return Embedding(values=v, iterations_used=0)
    delta_prev = None
    for t in range(1, max_iter + 1):
        u = N @ v
        v_next = u / np.abs(u).sum()
        delta = np.abs(v_next - v)
        v = v_next
        if delta_prev is not None and float(np.max(np.abs(delta - delta_prev))) <= epsilon:
            return Embedding(values=v, iterations_used=t)
        delta_prev = delta
    warnings.warn(
        f"power iteration stopped at max_iter={max_iter} without meeting epsilon={epsilon!r}",
        RuntimeWarning,
        stacklevel=2,
    )
    return Embedding(values=v, iterations_used=max_iter)
