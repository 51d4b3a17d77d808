"""Subset selection: combine per-feature similarity graphs to match the label graph.

Pipeline (training segments only): build every feature's k-NN similarity graph
and embedding, assemble the redundancy penalty over the embeddings, PSD-shift
it, flatten graphs into a design, run the sparse nonnegative solver, and read
the selected features off the positive coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InputError
from .graph import label_graph
from .info import RedundancyMatrix, build_redundancy, distinct, nystrom_redundancy, psd_shift
from .ranker import feature_embeddings
from .seeding import child_seed
from .solver import SolveResult, flatten, solve, solve_for_support

SUPPORT_EPSILON = 1e-9

# Beyond this many features the exact penalty matrix gets expensive; switch to
# the landmark approximation unless the caller says otherwise.
NYSTROM_AUTO_THRESHOLD = 512


@dataclass
class SelectionResult:
    alpha: np.ndarray
    selected: list[int]  # ascending feature ids with alpha > SUPPORT_EPSILON
    penalty_kind: str
    gamma: float
    lam: float
    beta: float
    solve_result: SolveResult
    penalty: RedundancyMatrix


def select_features(
    ds: Dataset,
    knn_k: int = 10,
    *,
    lam: float | None = None,
    target_size: int | None = None,
    beta: float = 1.0,
    penalty_kind: str = "cmi",
    nystrom_s: int | None = None,
    seed: int = 0,
    epsilon: float | None = None,
    max_iter: int = 1000,
    max_sweeps: int = 10_000,
    tol: float = 1e-8,
    cache_dir=None,
    window: int | None = None,
    znorm: bool = False,
    threads: int = 1,
) -> SelectionResult:
    """Select a sparse, low-redundancy feature subset.

    Exactly one of lam / target_size must be given; target_size bisects the
    sparsity penalty until the support size is as close as possible. nystrom_s
    picks the landmark count for the approximate penalty (0 forces the exact
    matrix; None auto-enables landmarks when m > 512).
    """
    if (lam is None) == (target_size is None):
        raise InputError("provide exactly one of lam / target_size")
    train = np.asarray(ds.train_ids, dtype=np.intp)
    y_train = ds.label_codes()[train]
    if len(distinct(y_train)) < 2:
        raise InputError("training labels contain a single class")
    num_classes = len(ds.classes)

    graphs, embeddings = feature_embeddings(
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
    target = label_graph(y_train)

    if nystrom_s is None and ds.m > NYSTROM_AUTO_THRESHOLD:
        nystrom_s = NYSTROM_AUTO_THRESHOLD
    if nystrom_s:
        raw = nystrom_redundancy(
            embeddings, y_train, num_classes, penalty_kind, nystrom_s,
            seed=child_seed(seed, "nystrom"),
        )
    else:
        raw = build_redundancy(embeddings, y_train, num_classes, penalty_kind)
    penalty = psd_shift(raw)

    design = flatten(graphs, target)
    if target_size is not None:
        lam, result = solve_for_support(
            design, penalty.values, beta, target_size, max_sweeps=max_sweeps, tol=tol,
            support_epsilon=SUPPORT_EPSILON,
        )
    else:
        result = solve(design, penalty.values, lam, beta, max_sweeps=max_sweeps, tol=tol)

    selected = [int(j) for j in np.flatnonzero(result.alpha > SUPPORT_EPSILON)]
    if not selected:
        warnings.warn("selection is empty: the sparsity penalty removed every feature",
                      RuntimeWarning, stacklevel=2)
    return SelectionResult(
        alpha=result.alpha,
        selected=selected,
        penalty_kind=penalty_kind,
        gamma=penalty.gamma,
        lam=float(lam),
        beta=float(beta),
        solve_result=result,
        penalty=penalty,
    )
