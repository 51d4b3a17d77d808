"""Data model and on-disk format for heterogeneous labeled MTS datasets.

A dataset directory looks like::

    meta.json            {"features": [{"name": "hr", "kind": "timeseries"}, ...]}
    labels.csv           header "segment_id,label", one row per segment (ids 0..n-1)
    values/<name>.csv    timeseries: header "segment_id,t,value"
                         scalar/categorical: header "segment_id,value"

All files are UTF-8 with LF newlines and "." as the decimal separator.
Segments may have different series lengths per feature and across features;
missing values are a hard error (cleaning is out of scope).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError
from .seeding import child_rng

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class FeatureKind(str, Enum):
    TIMESERIES = "timeseries"
    SCALAR = "scalar"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class FeatureDescriptor:
    id: int
    name: str
    kind: FeatureKind


@dataclass
class Segment:
    """One labeled sample: a value per feature descriptor plus a class token.

    values[j] is a float64 array for timeseries features, a float for scalar
    features, and a str token for categorical features.
    """

    id: int
    values: tuple
    label: str


@dataclass(eq=False)
class Dataset:
    descriptors: tuple[FeatureDescriptor, ...]
    segments: tuple[Segment, ...]
    classes: tuple[str, ...]
    train_ids: tuple[int, ...]
    test_ids: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.segments)

    @property
    def m(self) -> int:
        return len(self.descriptors)

    def label_codes(self) -> np.ndarray:
        """Labels as dense integers in class (first-appearance) order."""
        index = {c: i for i, c in enumerate(self.classes)}
        return np.array([index[s.label] for s in self.segments], dtype=np.intp)

    def with_split(self, train_ids: Sequence[int], test_ids: Sequence[int]) -> "Dataset":
        ds = replace(self, train_ids=tuple(train_ids), test_ids=tuple(test_ids))
        _check_split(ds)
        return ds

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if (self.descriptors, self.classes, self.train_ids, self.test_ids) != (
            other.descriptors,
            other.classes,
            other.train_ids,
            other.test_ids,
        ):
            return False
        if len(self.segments) != len(other.segments):
            return False
        for a, b in zip(self.segments, other.segments):
            if a.id != b.id or a.label != b.label:
                return False
            for va, vb in zip(a.values, b.values):
                if isinstance(va, np.ndarray):
                    if not isinstance(vb, np.ndarray) or not np.array_equal(va, vb):
                        return False
                elif va != vb:
                    return False
        return True


def _check_split(ds: Dataset) -> None:
    train, test = set(ds.train_ids), set(ds.test_ids)
    if train & test:
        raise InputError("train and test ids overlap")
    if train | test != set(range(ds.n)):
        raise InputError("train and test ids must cover all segments exactly once")


def validate_dataset(ds: Dataset) -> Dataset:
    """Check every structural invariant; raise InputError on the first violation."""
    if ds.m < 1:
        raise InputError("dataset needs at least one feature")
    if ds.n < 2:
        raise InputError("dataset needs at least two segments")
    for j, d in enumerate(ds.descriptors):
        if d.id != j:
            raise InputError(f"feature ids must be contiguous from 0; got {d.id} at position {j}")
        if not _NAME_RE.match(d.name):
            raise InputError(f"invalid feature name {d.name!r}")
        if not isinstance(d.kind, FeatureKind):
            raise InputError(f"unknown feature kind {d.kind!r} for feature {d.name!r}")
    names = [d.name for d in ds.descriptors]
    if len(set(names)) != len(names):
        raise InputError("feature names must be unique")
    if len(ds.classes) < 2:
        raise InputError("dataset needs at least two classes")
    class_set = set(ds.classes)
    for i, seg in enumerate(ds.segments):
        if seg.id != i:
            raise InputError(f"segment ids must be contiguous from 0; got {seg.id} at position {i}")
        if seg.label not in class_set:
            raise InputError(f"segment {i} has label {seg.label!r} not in class list")
        if len(seg.values) != ds.m:
            raise InputError(f"segment {i} has {len(seg.values)} values, expected {ds.m}")
        for d in ds.descriptors:
            v = seg.values[d.id]
            if d.kind is FeatureKind.TIMESERIES:
                if not isinstance(v, np.ndarray) or v.ndim != 1 or len(v) < 1:
                    raise InputError(
                        f"segment {i} feature {d.name!r}: timeseries must be a nonempty 1-d array"
                    )
                if not np.all(np.isfinite(v)):
                    raise InputError(f"segment {i} feature {d.name!r}: non-finite value")
            elif d.kind is FeatureKind.SCALAR:
                if not isinstance(v, float) or not math.isfinite(v):
                    raise InputError(f"segment {i} feature {d.name!r}: scalar must be finite")
            else:
                if not isinstance(v, str):
                    raise InputError(f"segment {i} feature {d.name!r}: categorical must be a token")
    _check_split(ds)
    return ds


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


def load_dataset(root_path) -> Dataset:
    """Load and validate a dataset directory.

    Class order is first-appearance order in labels.csv. The loaded dataset
    has all segments in the training split; use split() to carve out a test set.
    """
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
        if not isinstance(name, str) or not _NAME_RE.match(name):
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


def write_dataset(ds: Dataset, root_path) -> None:
    """Write a dataset directory in the load_dataset() format.

    Only content is persisted; the train/test split is a runtime property.
    """
    root = Path(root_path)
    (root / "values").mkdir(parents=True, exist_ok=True)
    meta = {"features": [{"name": d.name, "kind": d.kind.value} for d in ds.descriptors]}
    with open(root / "meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    with open(root / "labels.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["segment_id", "label"])
        for seg in ds.segments:
            writer.writerow([seg.id, seg.label])
    for d in ds.descriptors:
        with open(root / "values" / f"{d.name}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if d.kind is FeatureKind.TIMESERIES:
                writer.writerow(["segment_id", "t", "value"])
                for seg in ds.segments:
                    for t, x in enumerate(seg.values[d.id]):
                        writer.writerow([seg.id, t, repr(float(x))])
            elif d.kind is FeatureKind.SCALAR:
                writer.writerow(["segment_id", "value"])
                for seg in ds.segments:
                    writer.writerow([seg.id, repr(float(seg.values[d.id]))])
            else:
                writer.writerow(["segment_id", "value"])
                for seg in ds.segments:
                    writer.writerow([seg.id, seg.values[d.id]])


def split(ds: Dataset, train_fraction: float, seed: int) -> Dataset:
    """Deterministic stratified split into train/test.

    Per-class training counts are allocated by largest remainder against the
    global target round(train_fraction * n), clamped so every class keeps at
    least one segment on each side.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InputError(f"train fraction must be in (0, 1); got {train_fraction}")
    by_class: dict[str, list[int]] = {c: [] for c in ds.classes}
    for seg in ds.segments:
        by_class[seg.label].append(seg.id)
    for c, members in by_class.items():
        if len(members) < 2:
            raise InputError(f"cannot stratify: class {c!r} has {len(members)} segment(s)")

    target = int(round(train_fraction * ds.n))
    target = min(max(target, len(ds.classes)), ds.n - len(ds.classes))
    ideals = {c: train_fraction * len(members) for c, members in by_class.items()}
    counts = {c: min(max(int(math.floor(ideals[c])), 1), len(by_class[c]) - 1) for c in by_class}
    leftover = target - sum(counts.values())
    # Distribute the remainder by descending fractional part, ties by class order.
    order = sorted(ds.classes, key=lambda c: (-(ideals[c] - math.floor(ideals[c])), ds.classes.index(c)))
    step = 1 if leftover > 0 else -1
    if leftover < 0:
        order = order[::-1]
    i = 0
    while leftover != 0 and i < 10 * len(order):
        c = order[i % len(order)]
        lo, hi = 1, len(by_class[c]) - 1
        if lo <= counts[c] + step <= hi:
            counts[c] += step
            leftover -= step
        i += 1

    rng = child_rng(seed, "split")
    train: list[int] = []
    for c in ds.classes:
        members = np.array(by_class[c], dtype=np.intp)
        perm = rng.permutation(len(members))
        train.extend(int(x) for x in members[perm[: counts[c]]])
    train_ids = tuple(sorted(train))
    chosen = set(train)
    test_ids = tuple(i for i in range(ds.n) if i not in chosen)
    return ds.with_split(train_ids, test_ids)


def fingerprint(ds: Dataset) -> str:
    """Content hash of descriptors and values (labels and split excluded).

    Distance matrices depend only on this, so it keys the on-disk cache. The
    hashed bytes decode back to the content: the segment ids come first, then
    per feature a header line, the <i8 length of every segment's value (in
    values, or bytes for UTF-8 tokens) and the values concatenated (<f8
    numbers or the tokens), so two different datasets never share a stream.
    """
    h = hashlib.sha256()
    h.update(np.array([ds.n, *(seg.id for seg in ds.segments)], dtype="<i8"))
    columns = list(zip(*(seg.values for seg in ds.segments)))
    for d in ds.descriptors:
        h.update(f"F|{d.name}|{d.kind.value}\n".encode("utf-8"))
        column = columns[d.id]
        if d.kind is FeatureKind.TIMESERIES:
            lengths = [v.size for v in column]
            data = np.concatenate(column).astype("<f8", copy=False)
        elif d.kind is FeatureKind.SCALAR:
            lengths = [1] * len(column)
            data = np.array(column, dtype="<f8")
        else:
            tokens = [str(v).encode("utf-8") for v in column]
            lengths = [len(t) for t in tokens]
            data = b"".join(tokens)
        h.update(np.array(lengths, dtype="<i8"))
        h.update(data)
    return h.hexdigest()
