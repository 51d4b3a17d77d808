"""Workload definitions: generated inputs, timed command sequences, exact counts.

Each workload builds a planted dataset from the benchmark seed, names the
planted-informative features, and lists the `mts_select.cli.main` argument
vectors of its timed sequence. The exact per-sequence counts that the traced
run reports as "computed" (DTW pairs and cells, design bytes, redundancy
pairs) are derived here from the generated inputs alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mts_select.dataset import Dataset, FeatureDescriptor, FeatureKind, Segment
from mts_select.synthetic import generate

# The ranking workloads split off this share for their post-run 1-NN check,
# and select-sweep selects and evaluates on the same split.
TRAIN_FRACTION = 0.67
# Lowest 1-NN accuracy accepted from any eval command.
ACCURACY_FLOOR = 0.9


@dataclass
class Inputs:
    """A generated dataset and what the output checks need to know about it."""

    dataset: Dataset
    planted: frozenset[int]  # feature ids that carry the class signal


@dataclass
class Workload:
    """A generator and its timed sequence: rank on an empty cache, or, when
    penalties are given, one select + eval per penalty on a cache filled in
    set-up."""

    name: str
    params: dict  # generator parameters at full size
    smoke_params: dict  # the same generator at toy size
    knn: int
    penalties: tuple[str, ...] = ()

    def build(self, seed: int, smoke: bool) -> Inputs:
        params = self.smoke_params if smoke else self.params
        return _GENERATORS[self.name](seed, **params)

    def _common(self, data: str, cache: str, threads: int, split: bool) -> list[str]:
        argv = ["--data", data, "--cache-dir", cache, "--threads", str(threads)]
        if split:
            argv += ["--train-fraction", str(TRAIN_FRACTION)]
        return argv

    def timed_commands(self, data: str, cache: str, out: str, threads: int,
                       planted: int) -> list[list[str]]:
        """The argument vectors whose wall time is the workload's wall_s.

        select bisects toward a support of exactly the planted size.
        """
        if not self.penalties:
            return [["rank", *self._common(data, cache, threads, False),
                     "--knn", str(self.knn), "--out", out]]
        commands = []
        for penalty in self.penalties:
            sub = f"{out}/{penalty}"
            commands.append(["select", *self._common(data, cache, threads, True),
                             "--knn", str(self.knn), "--target-size", str(planted),
                             "--penalty", penalty, "--out", sub])
            commands.append(["eval", *self._common(data, cache, threads, True),
                             "--subset", f"{sub}/alpha.csv", "--weighted",
                             "--out", f"{sub}/results.json"])
        return commands

    def post_commands(self, data: str, cache: str, out: str, planted: int) -> list[list[str]]:
        """Untimed commands that give a ranking its 1-NN accuracy."""
        if self.penalties:
            return []
        return [["eval", *self._common(data, cache, 1, True),
                 "--subset", f"{out}/scores.csv", "--top", str(planted),
                 "--out", f"{out}/results.json"]]

    def outputs(self) -> dict[str, int]:
        """Output files that must repeat byte for byte, relative to the out
        directory, each with the index of the command that writes it (timed
        commands first, then post commands)."""
        if not self.penalties:
            return {"scores.csv": 0, "results.json": 1}
        files = {}
        for i, p in enumerate(self.penalties):
            files.update({f"{p}/alpha.csv": 2 * i, f"{p}/alpha_meta.json": 2 * i,
                          f"{p}/results.json": 2 * i + 1})
        return files


def _dataset(names_kinds, columns, labels, classes) -> Dataset:
    descriptors = tuple(FeatureDescriptor(j, name, kind) for j, (name, kind) in enumerate(names_kinds))
    segments = tuple(
        Segment(i, tuple(col[i] for col in columns), labels[i]) for i in range(len(labels))
    )
    return Dataset(descriptors=descriptors, segments=segments, classes=tuple(classes),
                   train_ids=tuple(range(len(labels))), test_ids=())


def _informative(rng, cls: int, f: int, classes: int, length: int) -> np.ndarray:
    """Class-dependent level and sinusoid under unit Gaussian noise."""
    t = np.arange(length) / length
    level = 4.0 * ((cls + f) % classes)
    freq = 1 + (f + 2 * cls) % 3
    return level + np.sin(2.0 * np.pi * freq * t) + rng.standard_normal(length)


def _gen_rank_cold(seed: int, n: int, classes: int, informative: int, noise: int) -> Inputs:
    ds = generate(n=n, classes=classes, informative=informative, noise=noise, seed=seed)
    return Inputs(ds, frozenset(range(informative)))


def _gen_select_sweep(seed: int, n: int, classes: int, informative: int, noise: int,
                      length: tuple[int, int], scalar: int, categorical: int,
                      tokens: int) -> Inputs:
    """Short series of one length per feature plus scalar and categorical noise.

    Series lengths cycle through the length range in generation order, so the
    amount of work does not depend on the seed. Feature positions are then
    shuffled so that no tie-break by feature id can favour the planted set.
    """
    rng = np.random.default_rng([seed, 2])
    labels_idx = [i % classes for i in range(n)]
    sizes = range(length[0], length[1] + 1)
    specs = []
    for f in range(informative):
        specs.append((f"sig{f}", FeatureKind.TIMESERIES, f, sizes[f % len(sizes)]))
    for f in range(noise):
        specs.append((f"noise{f}", FeatureKind.TIMESERIES, None, sizes[f % len(sizes)]))
    for f in range(scalar):
        specs.append((f"scalar{f}", FeatureKind.SCALAR, None, None))
    for f in range(categorical):
        specs.append((f"cat{f}", FeatureKind.CATEGORICAL, None, None))
    order = rng.permutation(len(specs))
    specs = [specs[k] for k in order]
    columns = []
    planted = set()
    for j, (name, kind, f, size) in enumerate(specs):
        if kind is FeatureKind.TIMESERIES:
            if f is None:
                col = [rng.standard_normal(size) for _ in range(n)]
            else:
                planted.add(j)
                col = [_informative(rng, c, f, classes, size) for c in labels_idx]
        elif kind is FeatureKind.SCALAR:
            col = [float(x) for x in rng.standard_normal(n)]
        else:
            col = [f"t{int(x)}" for x in rng.integers(0, tokens, size=n)]
        columns.append(col)
    ds = _dataset([(name, kind) for name, kind, _, _ in specs], columns,
                  [f"c{c}" for c in labels_idx], [f"c{c}" for c in range(classes)])
    return Inputs(ds, frozenset(planted))


_GENERATORS = {
    "rank-cold": _gen_rank_cold,
    "select-sweep": _gen_select_sweep,
}

# Why each workload was chosen is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rank-cold",
            params=dict(n=80, classes=3, informative=6, noise=24),
            smoke_params=dict(n=30, classes=3, informative=2, noise=2),
            knn=10,
        ),
        Workload(
            name="select-sweep",
            params=dict(n=90, classes=3, informative=8, noise=42, length=(8, 12),
                        scalar=10, categorical=10, tokens=4),
            smoke_params=dict(n=30, classes=3, informative=3, noise=3, length=(6, 8),
                              scalar=1, categorical=1, tokens=3),
            knn=10, penalties=("mi", "cmi"),
        ),
    )
}


def expected_train_size(n: int, classes: int, fraction: float) -> int:
    """Training-set size of mts_select.dataset.split on balanced classes:
    round(fraction * n), clamped so every class keeps a segment on each side."""
    return min(max(int(round(fraction * n)), classes), n - classes)


def dtw_counts(inputs: Inputs, feature_ids) -> tuple[int, int]:
    """DTW pairs and DP cells (len(s) x len(t) per pair) of the upper
    triangle of each time-series feature."""
    ds = inputs.dataset
    pairs = cells = 0
    for fid in feature_ids:
        if ds.descriptors[fid].kind is not FeatureKind.TIMESERIES:
            continue
        lengths = np.array([len(seg.values[fid]) for seg in ds.segments], dtype=np.int64)
        total = int(lengths.sum())
        pairs += ds.n * (ds.n - 1) // 2
        cells += (total * total - int(np.dot(lengths, lengths))) // 2
    return pairs, cells
