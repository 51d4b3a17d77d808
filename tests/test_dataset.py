import json

import numpy as np
import pytest

from mts_select.dataset import fingerprint, load_dataset, split, write_dataset
from mts_select.errors import InputError
from mts_select.synthetic import generate

from conftest import make_dataset


def write_minimal(root, drop=None, mutate=None):
    """Two segments, one timeseries feature 'hr', one scalar 'age'."""
    (root / "values").mkdir(parents=True)
    files = {
        "meta.json": json.dumps(
            {"features": [
                {"name": "hr", "kind": "timeseries"},
                {"name": "age", "kind": "scalar"},
            ]}
        ),
        "labels.csv": "segment_id,label\n0,sick\n1,healthy\n",
        "values/hr.csv": "segment_id,t,value\n0,0,1.0\n0,1,2.0\n1,0,3.5\n",
        "values/age.csv": "segment_id,value\n0,40.0\n1,61.5\n",
    }
    if mutate:
        files.update(mutate)
    for name, content in files.items():
        if drop and name == drop:
            continue
        (root / name).write_text(content, encoding="utf-8")


class TestLoad:
    def test_well_formed_round(self, tmp_path):
        write_minimal(tmp_path)
        ds = load_dataset(tmp_path)
        assert ds.n == 2 and ds.m == 2
        assert ds.classes == ("sick", "healthy")
        assert ds.train_ids == (0, 1) and ds.test_ids == ()
        np.testing.assert_array_equal(ds.segments[0].values[0], [1.0, 2.0])
        assert ds.segments[1].values[1] == 61.5

    def test_missing_labels_file(self, tmp_path):
        write_minimal(tmp_path, drop="labels.csv")
        with pytest.raises(InputError, match="labels file not found"):
            load_dataset(tmp_path)

    def test_segment_lacking_feature(self, tmp_path):
        write_minimal(tmp_path, mutate={"values/hr.csv": "segment_id,t,value\n0,0,1.0\n"})
        with pytest.raises(InputError, match="segment 1 lacks feature 'hr'"):
            load_dataset(tmp_path)

    def test_unknown_kind(self, tmp_path):
        write_minimal(tmp_path, mutate={
            "meta.json": json.dumps({"features": [{"name": "hr", "kind": "wavelet"}]})
        })
        with pytest.raises(InputError, match="unknown kind 'wavelet'"):
            load_dataset(tmp_path)

    def test_unparsable_value_names_row(self, tmp_path):
        write_minimal(tmp_path, mutate={"values/age.csv": "segment_id,value\n0,forty\n1,61.5\n"})
        with pytest.raises(InputError, match=r"age\.csv row 2.*'forty'"):
            load_dataset(tmp_path)

    def test_non_finite_value_rejected(self, tmp_path):
        write_minimal(tmp_path, mutate={"values/age.csv": "segment_id,value\n0,nan\n1,61.5\n"})
        with pytest.raises(InputError, match="non-finite"):
            load_dataset(tmp_path)

    def test_label_count_mismatch(self, tmp_path):
        write_minimal(tmp_path, mutate={
            "labels.csv": "segment_id,label\n0,sick\n1,healthy\n2,sick\n"
        })
        with pytest.raises(InputError, match="lacks feature"):
            load_dataset(tmp_path)

    def test_unknown_segment_in_values(self, tmp_path):
        write_minimal(tmp_path, mutate={
            "values/age.csv": "segment_id,value\n0,40.0\n1,61.5\n7,1.0\n"
        })
        with pytest.raises(InputError, match="unknown segment_id 7"):
            load_dataset(tmp_path)

    def test_duplicate_sample_index(self, tmp_path):
        write_minimal(tmp_path, mutate={
            "values/hr.csv": "segment_id,t,value\n0,0,1.0\n0,0,2.0\n1,0,3.5\n"
        })
        with pytest.raises(InputError, match="duplicate sample index"):
            load_dataset(tmp_path)

    def test_single_class_rejected(self, tmp_path):
        write_minimal(tmp_path, mutate={"labels.csv": "segment_id,label\n0,sick\n1,sick\n"})
        with pytest.raises(InputError, match="at least two classes"):
            load_dataset(tmp_path)

    def test_class_order_is_first_appearance(self, tmp_path):
        write_minimal(tmp_path, mutate={"labels.csv": "segment_id,label\n1,b\n0,a\n"})
        ds = load_dataset(tmp_path)
        assert ds.classes == ("b", "a")
        np.testing.assert_array_equal(ds.label_codes(), [1, 0])


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        ds = generate(n=10, classes=2, informative=2, noise=1, seed=3, duplicates=(0,))
        write_dataset(ds, tmp_path / "out")
        assert load_dataset(tmp_path / "out") == ds

    def test_mixed_kinds_round_trip(self, tmp_path):
        ds = make_dataset(
            [
                ("ts", "timeseries", [[0.1, -2.5, 3.25], [7.0], [1e-9, 2.0]]),
                ("sc", "scalar", [1.5, -0.25, 1e300]),
                ("cat", "categorical", ["icu, 1", "ICU1", "w ard"]),
            ],
            ["a", "b", "a"],
        )
        write_dataset(ds, tmp_path / "d")
        assert load_dataset(tmp_path / "d") == ds


class TestSplit:
    def test_balanced_half_split(self):
        ds = make_dataset(
            [("s", "scalar", list(map(float, range(10))))],
            ["a", "b"] * 5,
        )
        out = split(ds, 0.5, seed=7)
        assert len(out.train_ids) == 5 and len(out.test_ids) == 5
        train_labels = {out.segments[i].label for i in out.train_ids}
        test_labels = {out.segments[i].label for i in out.test_ids}
        assert train_labels == test_labels == {"a", "b"}

    def test_deterministic(self):
        ds = make_dataset([("s", "scalar", list(map(float, range(10))))], ["a", "b"] * 5)
        first = split(ds, 0.5, seed=7)
        second = split(ds, 0.5, seed=7)
        assert first.train_ids == second.train_ids
        assert first.test_ids == second.test_ids

    def test_seed_changes_split(self):
        ds = make_dataset([("s", "scalar", list(map(float, range(20))))], ["a", "b"] * 10)
        outs = {split(ds, 0.5, seed=s).train_ids for s in range(8)}
        assert len(outs) > 1

    def test_singleton_class_cannot_stratify(self):
        ds = make_dataset([("s", "scalar", [0.0, 1.0, 2.0])], ["a", "a", "b"])
        with pytest.raises(InputError, match="cannot stratify"):
            split(ds, 0.5, seed=1)

    def test_disjoint_exhaustive(self):
        ds = make_dataset([("s", "scalar", list(map(float, range(9))))], ["a", "b", "c"] * 3)
        out = split(ds, 0.66, seed=2)
        assert sorted(out.train_ids + out.test_ids) == list(range(9))
        assert not set(out.train_ids) & set(out.test_ids)


class TestFingerprint:
    def test_series_boundaries_are_part_of_the_key(self):
        # Written as "<segment id>|<series bytes>\n" per segment, both datasets
        # give the same bytes: y1 and z hide the separator "\n1|" inside a float,
        # so only a length prefix tells where the first series ends.
        y1 = np.frombuffer(b"\0\0\0\0\x3f\n1|", dtype="<f8")[0]
        z = np.frombuffer(b"\n1|\0\0\0\0\x3f", dtype="<f8")[0]
        assert np.isfinite(y1) and np.isfinite(z)
        a = make_dataset([("s", "timeseries", [[1.0], [y1, 2.5]])], ["p", "q"])
        b = make_dataset([("s", "timeseries", [[1.0, z], [2.5]])], ["p", "q"])
        assert fingerprint(a) != fingerprint(b)

    def test_depends_on_values_not_on_labels_or_split(self):
        columns = [
            ("ts", "timeseries", [[0.5, 1.0], [2.0]]),
            ("sc", "scalar", [1.5, -0.25]),
            ("cat", "categorical", ["ab", "c"]),
        ]
        base = fingerprint(make_dataset(columns, ["p", "q"]))
        assert fingerprint(make_dataset(columns, ["q", "q"], (1,), (0,))) == base
        moved = [columns[0], columns[1], ("cat", "categorical", ["a", "bc"])]
        assert fingerprint(make_dataset(moved, ["p", "q"])) != base


class TestValidationFuzz:
    def test_each_corruption_rejected(self, tmp_path):
        corruptions = {
            "empty series": {"values/hr.csv": "segment_id,t,value\n0,0,1.0\n0,1,2.0\n"},
            "bad t index": {"values/hr.csv": "segment_id,t,value\n0,0,1.0\n0,2,2.0\n1,0,3.5\n"},
            "missing scalar": {"values/age.csv": "segment_id,value\n0,40.0\n"},
            "extra field": {"values/age.csv": "segment_id,value\n0,40.0,9\n1,61.5\n"},
            "bad header": {"values/age.csv": "id,value\n0,40.0\n1,61.5\n"},
            "dup segment": {"labels.csv": "segment_id,label\n0,sick\n0,healthy\n"},
            "gap in ids": {"labels.csv": "segment_id,label\n0,sick\n2,healthy\n"},
        }
        for name, mutate in corruptions.items():
            root = tmp_path / name.replace(" ", "_")
            write_minimal(root, mutate=mutate)
            with pytest.raises(InputError):
                load_dataset(root)
