"""Data model and on-disk format for heterogeneous labeled MTS datasets.

A dataset directory looks like::

    meta.json            {"features": [{"name": "hr", "kind": "timeseries"}, ...]}
    labels.csv           header "segment_id,label", one row per segment (ids 0..n-1)
    values/<name>.csv    timeseries: header "segment_id,t,value"
                         scalar/categorical: header "segment_id,value"

All files are UTF-8 with LF newlines and "." as the decimal separator. Rows
may come in any order and blank lines are skipped. Segments may have
different series lengths per feature and across features; missing values are
a hard error (cleaning is out of scope).

A Dataset is immutable. Construction copies each feature into one read-only
column: a time-series feature's series concatenated (with offsets and
lengths), a scalar feature's float64 array, a categorical feature's tuple of
tokens. Each segment's series is a read-only view into its column.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import numbers
import re
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError
from .seeding import child_rng

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")
# One row of a numeric values file; the fields before "value" are its key.
_SERIES_ROW = np.dtype([("segment_id", "<i8"), ("t", "<i8"), ("value", "<f8")])
_SCALAR_ROW = np.dtype([("segment_id", "<i8"), ("value", "<f8")])


class FeatureKind(str, Enum):
    TIMESERIES = "timeseries"
    SCALAR = "scalar"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class FeatureDescriptor:
    id: int
    name: str
    kind: FeatureKind


@dataclass(frozen=True)
class Segment:
    """One labeled sample: a value per feature descriptor plus a class token.

    values[j] is a float64 array for timeseries features (in a Dataset, a
    read-only view into its column), a float for scalar features, and a str
    token for categorical features.
    """

    id: int
    values: tuple
    label: str


@dataclass(frozen=True, eq=False)
class SeriesColumn:
    """One time-series feature: segment i's series is
    values[offsets[i] : offsets[i] + lengths[i]]. All three arrays are read-only."""

    values: np.ndarray  # <f8
    offsets: np.ndarray  # <i8
    lengths: np.ndarray  # <i8

    @classmethod
    def concat(cls, series) -> "SeriesColumn":
        """A column holding a copy of each series, in order."""
        lengths = np.array([len(x) for x in series], dtype="<i8")
        offsets = np.cumsum(lengths) - lengths
        values = np.concatenate([np.empty(0, "<f8"), *series]).astype("<f8", copy=False)
        for a in (values, offsets, lengths):
            a.flags.writeable = False
        return cls(values, offsets, lengths)

    def series(self) -> list[np.ndarray]:
        """Each segment's series, as a read-only view into values."""
        return [self.values[o : o + k] for o, k in zip(self.offsets.tolist(), self.lengths.tolist())]


# What every segment's value of a feature must be, by kind (series are
# checked after np.asarray).
_VALUE_RULES = {
    FeatureKind.TIMESERIES: ("a nonempty 1-d real array",
                             lambda v: v.ndim == 1 and v.size > 0 and v.dtype.kind in "biuf"),
    FeatureKind.SCALAR: ("a real number", lambda v: isinstance(v, numbers.Real)),
    FeatureKind.CATEGORICAL: ("a str token", lambda v: isinstance(v, str)),
}


def _column(d: FeatureDescriptor, values: list):
    """The read-only column of one feature, from its value in every segment."""
    if not isinstance(d.kind, FeatureKind):
        raise InputError(f"unknown feature kind {d.kind!r} for feature {d.name!r}")
    rule, valid = _VALUE_RULES[d.kind]
    if d.kind is FeatureKind.TIMESERIES:
        values = [np.asarray(v) for v in values]
    bad = next((i for i, v in enumerate(values) if not valid(v)), None)
    if bad is not None:
        raise InputError(f"segment {bad} feature {d.name!r}: {d.kind.value} must be {rule}")
    if d.kind is FeatureKind.TIMESERIES:
        return SeriesColumn.concat(values)
    if d.kind is FeatureKind.SCALAR:
        column = np.array(values, dtype="<f8")
        column.flags.writeable = False
        return column
    return tuple(values)


def _same_column(a, b) -> bool:
    if isinstance(a, SeriesColumn):
        return np.array_equal(a.lengths, b.lengths) and np.array_equal(a.values, b.values)
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@dataclass(frozen=True, eq=False)
class Dataset:
    """Features, segments, classes and a train/test split; immutable.

    columns[j] holds feature j of every segment (see the module docstring).
    The content digest (fingerprint) is computed once and shared with every
    with_split() copy.
    """

    descriptors: tuple[FeatureDescriptor, ...]
    segments: tuple[Segment, ...]
    classes: tuple[str, ...]
    train_ids: tuple[int, ...]
    test_ids: tuple[int, ...]
    columns: tuple = field(init=False, repr=False)
    _digest: list = field(init=False, repr=False, default_factory=list)

    def __post_init__(self):
        m = len(self.descriptors)
        for i, seg in enumerate(self.segments):
            if len(seg.values) != m:
                raise InputError(f"segment {i} has {len(seg.values)} values, expected {m}")
        columns = tuple(
            _column(d, [seg.values[j] for seg in self.segments])
            for j, d in enumerate(self.descriptors)
        )
        entries = [
            c.series() if isinstance(c, SeriesColumn) else c.tolist() if isinstance(c, np.ndarray) else c
            for c in columns
        ]
        rows = zip(*entries) if entries else [()] * len(self.segments)
        segments = tuple(Segment(s.id, values, s.label) for s, values in zip(self.segments, rows))
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "segments", segments)

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

    def first_nonfinite(self, feature_id: int) -> int | None:
        """Position of the first segment whose value of the feature is not
        finite (series: any element), or None; None for categorical features."""
        column = self.columns[feature_id]
        if isinstance(column, tuple):
            return None
        series = isinstance(column, SeriesColumn)
        bad = np.flatnonzero(~np.isfinite(column.values if series else column))
        if not bad.size:
            return None
        return int(np.searchsorted(column.offsets, bad[0], side="right") - 1 if series else bad[0])

    def with_split(self, train_ids: Sequence[int], test_ids: Sequence[int]) -> "Dataset":
        """The same content under another split, sharing columns and digest."""
        ds = copy.copy(self)
        object.__setattr__(ds, "train_ids", tuple(train_ids))
        object.__setattr__(ds, "test_ids", tuple(test_ids))
        _check_split(ds)
        return ds

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.descriptors, self.classes, self.train_ids, self.test_ids)
            == (other.descriptors, other.classes, other.train_ids, other.test_ids)
            and [(s.id, s.label) for s in self.segments] == [(s.id, s.label) for s in other.segments]
            and all(map(_same_column, self.columns, other.columns))
        )


def _check_split(ds: Dataset) -> None:
    train, test = set(ds.train_ids), set(ds.test_ids)
    if train & test:
        raise InputError("train and test ids overlap")
    if train | test != set(range(ds.n)):
        raise InputError("train and test ids must cover all segments exactly once")


def validate_dataset(ds: Dataset) -> Dataset:
    """Check every invariant the constructor does not; raise InputError on the first violation."""
    if ds.m < 1:
        raise InputError("dataset needs at least one feature")
    if ds.n < 2:
        raise InputError("dataset needs at least two segments")
    for j, d in enumerate(ds.descriptors):
        if d.id != j:
            raise InputError(f"feature ids must be contiguous from 0; got {d.id} at position {j}")
        if not _NAME_RE.match(d.name):
            raise InputError(f"invalid feature name {d.name!r}")
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
    for d in ds.descriptors:
        bad = ds.first_nonfinite(d.id)
        if bad is not None:
            raise InputError(f"segment {bad} feature {d.name!r}: non-finite value")
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


def _parse_rows(text: str, row_type: np.dtype) -> np.ndarray:
    """Comma-separated rows parsed by numpy's number parser, each line on its
    own (no quoting); blank lines are skipped."""
    if not text.strip("\n"):
        return np.empty(0, row_type)
    return np.loadtxt(io.StringIO(text), delimiter=",", dtype=row_type, comments=None, ndmin=1)


def _data_lines(body: str) -> list[str]:
    return [line for line in body.split("\n") if line]


def _unparsable(lines: list[str], row_type: np.dtype) -> tuple[int, str]:
    """The first of lines that does not parse as a row_type (one must not), and why."""
    lo, hi = 0, len(lines)  # lines[:lo] parse, lines[:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows("\n".join(lines[lo:mid]), row_type)
            lo = mid
        except ValueError:
            hi = mid
    tokens = lines[lo].split(",")
    if len(tokens) != len(row_type.names):
        return lo, f"expected {len(row_type.names)} fields"
    for token, name in zip(tokens, row_type.names):
        try:
            if _parse_rows(token, row_type[name]).size == 1:
                continue
        except ValueError:
            pass
        return lo, f"unparsable {'value' if name == 'value' else 'integer'} {token!r}"
    return lo, f"unparsable row {lines[lo]!r}"


def _load_values(path: Path, name: str, row_type: np.dtype, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A numeric values file's values in (segment_id, t) order, and each segment's count.

    Rejects, naming the file and the first offending row (1-based, counting
    the header but not blank lines), a row with the wrong number of fields,
    an unparsable number, an unknown segment id, a key (segment_id, and t for
    series) seen on an earlier row or a non-finite value; then a segment
    without rows, and a series whose t is not 0..len-1.
    """
    keys = list(row_type.names[:-1])
    text = path.read_text(encoding="utf-8")
    if not text:
        raise InputError(f"{path}: file is empty")
    header, _, body = text.partition("\n")
    if next(csv.reader([header]), None) != list(row_type.names):
        raise InputError(f"{path}: expected header {','.join(row_type.names)!r}")
    found = []  # (row index, message) of each kind of row error that occurs
    try:
        rows = _parse_rows(body, row_type)
    except ValueError:
        lines = _data_lines(body)
        stop, problem = _unparsable(lines, row_type)
        found.append((stop, lambda r: problem))
        rows = _parse_rows("\n".join(lines[:stop]), row_type)
    sid = rows["segment_id"]
    order = np.lexsort([rows[k] for k in reversed(keys)])
    ordered = rows[order]
    repeated = np.zeros(rows.size, dtype=bool)
    repeated[order[1:][np.logical_and.reduce([ordered[k][1:] == ordered[k][:-1] for k in keys])]] = True
    for bad, message in (
        ((sid < 0) | (sid >= n), lambda r: f"unknown segment_id {sid[r]}"),
        (repeated, lambda r: f"duplicate sample index {rows['t'][r]} for segment {sid[r]}"
         if "t" in keys else f"duplicate segment_id {sid[r]}"),
        (~np.isfinite(rows["value"]),
         lambda r: f"non-finite value {_data_lines(body)[r].split(',')[-1]!r}"),
    ):
        if bad.any():
            found.append((int(np.argmax(bad)), message))
    if found:  # rows that parsed all precede an unparsable one; ties keep check order
        r, message = min(found, key=lambda f: f[0])
        raise InputError(f"{path} row {r + 2}: {message(r)}")
    lengths = np.bincount(ordered["segment_id"], minlength=n)
    position = np.arange(rows.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    gaps = ordered["segment_id"][(ordered["t"] if "t" in keys else 0) != position]
    first = min([*np.flatnonzero(lengths == 0)[:1].tolist(), *gaps[:1].tolist()], default=None)
    if first is not None and lengths[first]:
        raise InputError(f"{path}: segment {first} sample indices must be exactly 0..{lengths[first] - 1}")
    if first is not None:
        raise InputError(f"segment {first} lacks feature {name!r} ({path})")
    return np.ascontiguousarray(ordered["value"]), lengths


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

    columns: list[list] = []
    for d in descriptors:
        vpath = root / "values" / f"{d.name}.csv"
        if not vpath.is_file():
            raise InputError(f"values file not found for feature {d.name!r}: {vpath}")
        if d.kind is not FeatureKind.CATEGORICAL:
            series = d.kind is FeatureKind.TIMESERIES
            values, lengths = _load_values(vpath, d.name, _SERIES_ROW if series else _SCALAR_ROW, n)
            starts = (np.cumsum(lengths) - lengths).tolist()
            columns.append([values[o : o + k] for o, k in zip(starts, lengths.tolist())]
                           if series else values.tolist())
            continue
        seen: dict[int, str] = {}
        for r, row in enumerate(_read_csv(vpath, ["segment_id", "value"]), start=2):
            if len(row) != 2:
                raise InputError(f"{vpath} row {r}: expected 2 fields")
            sid = _parse_int(row[0], vpath, r)
            if sid not in labels:
                raise InputError(f"{vpath} row {r}: unknown segment_id {sid}")
            if sid in seen:
                raise InputError(f"{vpath} row {r}: duplicate segment_id {sid}")
            seen[sid] = row[1]
        for sid in range(n):
            if sid not in seen:
                raise InputError(f"segment {sid} lacks feature {d.name!r} ({vpath})")
        columns.append([seen[sid] for sid in range(n)])

    segments = tuple(Segment(i, values, labels[i]) for i, values in enumerate(zip(*columns)))
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
    ids = [seg.id for seg in ds.segments]
    files = [("labels.csv", ["segment_id", "label"], zip(ids, [seg.label for seg in ds.segments]))]
    for d, column in zip(ds.descriptors, ds.columns):
        if d.kind is FeatureKind.TIMESERIES:  # rows made one segment at a time
            rows = ((i, t, repr(x)) for i, x_i in zip(ids, column.series())
                    for t, x in enumerate(x_i.tolist()))
            files.append((f"values/{d.name}.csv", ["segment_id", "t", "value"], rows))
        else:
            rows = zip(ids, map(repr, column.tolist()) if d.kind is FeatureKind.SCALAR else column)
            files.append((f"values/{d.name}.csv", ["segment_id", "value"], rows))
    for name, header, rows in files:
        with open(root / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)


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


_digest_lock = threading.Lock()


def fingerprint(ds: Dataset) -> str:
    """Content hash of descriptors and values (labels and split excluded).

    Distance matrices depend only on this, so it keys the on-disk cache. It is
    computed on the first call for a dataset, or for any with_split() copy of
    it, and kept.
    """
    with _digest_lock:
        if not ds._digest:
            ds._digest.append(_content_digest(ds))
        return ds._digest[0]


def _content_digest(ds: Dataset) -> str:
    """SHA-256 of a byte stream that decodes back to the content: the segment
    ids come first, then per feature a header line, the <i8 length of every
    segment's value (in values, or bytes for UTF-8 tokens) and the values
    concatenated (<f8 numbers or the tokens), so two different datasets never
    share a stream."""
    h = hashlib.sha256()
    h.update(np.array([ds.n, *(seg.id for seg in ds.segments)], dtype="<i8"))
    for d, column in zip(ds.descriptors, ds.columns):
        h.update(f"F|{d.name}|{d.kind.value}\n".encode("utf-8"))
        if d.kind is FeatureKind.TIMESERIES:
            lengths, data = column.lengths, column.values
        elif d.kind is FeatureKind.SCALAR:
            lengths, data = np.ones(ds.n, dtype="<i8"), column
        else:
            tokens = [t.encode("utf-8") for t in column]
            lengths, data = np.array([len(t) for t in tokens], dtype="<i8"), b"".join(tokens)
        h.update(lengths)
        h.update(data)
    return h.hexdigest()
