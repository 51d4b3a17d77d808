import json
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mts_select.dataset import (
    Dataset,
    FeatureDescriptor,
    FeatureKind,
    Segment,
    fingerprint,
    load_dataset,
    split,
    write_dataset,
)
from mts_select.errors import InputError
from mts_select.synthetic import generate

from conftest import make_dataset
from oracles import fingerprint_brute, load_dataset_rows


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


def shuffle_values_files(root, rng):
    """Shuffle the data rows of every values file and scatter blank lines among them."""
    for path in sorted((root / "values").iterdir()):
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        rows = [rows[i] for i in rng.permutation(len(rows))]
        for _ in range(int(rng.integers(0, 4))):
            rows.insert(int(rng.integers(0, len(rows) + 1)), "")
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


finite_reals = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    n = draw(st.integers(2, 12))
    labels = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n))
    if len(set(labels)) < 2:
        labels[0], labels[1] = "a", "b"
    kinds = draw(st.lists(st.sampled_from(["timeseries", "scalar", "categorical"]),
                          min_size=1, max_size=4))
    specs = []
    for j, kind in enumerate(kinds):
        if kind == "timeseries":
            col = [draw(st.lists(finite_reals, min_size=1, max_size=15)) for _ in range(n)]
        elif kind == "scalar":
            col = draw(st.lists(finite_reals, min_size=n, max_size=n))
        else:
            col = draw(st.lists(st.text("xyz ,\"'é", max_size=4), min_size=n, max_size=n))
        specs.append((f"f{j}", kind, col))
    return make_dataset(specs, labels)


class TestColumnarLoader:
    """load_dataset against the row-by-row loader it replaced (oracles.load_dataset_rows)."""

    @given(datasets(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_row_loader_on_shuffled_files(self, tmp_path_factory, ds, seed):
        root = tmp_path_factory.mktemp("ds")
        write_dataset(ds, root)
        shuffle_values_files(root, np.random.default_rng(seed))
        loaded = load_dataset(root)
        assert loaded == load_dataset_rows(root) == ds
        assert fingerprint(loaded) == fingerprint_brute(load_dataset_rows(root)) == fingerprint(ds)

    BASE = {
        "values/hr.csv": "segment_id,t,value\n1,1,4.0\n0,0,1.0\n1,0,3.5\n2,0,0.5\n0,1,2.0\n",
        "values/age.csv": "segment_id,value\n2,7.0\n0,40.0\n1,61.5\n",
    }
    CORRUPT = {
        "duplicate t": ("values/hr.csv", "1,1,4.0\n0,0,1.0\n1,0,3.5\n0,0,9.0\n2,0,0.5\n0,1,2.0\n", 5),
        "gap in t": ("values/hr.csv", "1,1,4.0\n0,0,1.0\n1,0,3.5\n2,0,0.5\n0,2,2.0\n", None),
        "negative t": ("values/hr.csv", "1,1,4.0\n0,0,1.0\n1,0,3.5\n2,-1,0.5\n0,1,2.0\n", None),
        "unknown id": ("values/hr.csv", "1,1,4.0\n0,0,1.0\n3,0,3.5\n2,0,0.5\n0,1,2.0\n", 4),
        "negative id": ("values/age.csv", "2,7.0\n-1,40.0\n1,61.5\n", 3),
        "missing segment": ("values/hr.csv", "0,0,1.0\n2,0,0.5\n0,1,2.0\n", None),
        "missing scalar": ("values/age.csv", "2,7.0\n0,40.0\n", None),
        "duplicate scalar": ("values/age.csv", "2,7.0\n0,40.0\n1,61.5\n2,8.0\n", 5),
        "nan": ("values/hr.csv", "1,1,4.0\n0,0,1.0\n1,0,nan\n2,0,0.5\n0,1,2.0\n", 4),
        "inf": ("values/age.csv", "2,7.0\n0,-inf\n1,61.5\n", 3),
        "overflow": ("values/age.csv", "2,7.0\n0,1e400\n1,61.5\n", 3),
        "non-numeric": ("values/hr.csv", "1,1,4.0\n0,0,1.0\n1,0,3.5\n2,0,zero\n0,1,2.0\n", 5),
        "non-numeric t": ("values/hr.csv", "1,1,4.0\n0,x,1.0\n1,0,3.5\n2,0,0.5\n0,1,2.0\n", 3),
        "empty value": ("values/age.csv", "2,7.0\n0,\n1,61.5\n", 3),
        "too few fields": ("values/hr.csv", "1,1,4.0\n0,0,1.0\n1,0\n2,0,0.5\n0,1,2.0\n", 4),
        "too many fields": ("values/age.csv", "2,7.0\n0,40.0,1\n1,61.5\n", 3),
        "whitespace line": ("values/age.csv", "2,7.0\n  \n0,40.0\n1,61.5\n", 3),
        "1.5 as id": ("values/hr.csv", "1,1,4.0\n0,0,1.0\n1.5,0,3.5\n2,0,0.5\n0,1,2.0\n", 4),
        "earliest of two defects": ("values/hr.csv", "1,1,4.0\n7,0,1.0\n1,0,3.5\n2,0,x\n0,1,2.0\n", 3),
        "defect after blank lines": ("values/hr.csv", "1,1,4.0\n\n0,0,1.0\n\n1,0,3.5\n2,0,y\n0,1,2.0\n", 5),
    }

    @pytest.mark.parametrize("case", sorted(CORRUPT))
    def test_broken_input_same_error_as_row_loader(self, tmp_path, case):
        name, body, row = self.CORRUPT[case]
        header = self.BASE[name].split("\n", 1)[0]
        write_minimal(tmp_path, mutate={
            "labels.csv": "segment_id,label\n0,sick\n1,healthy\n2,sick\n",
            **self.BASE,
            name: f"{header}\n{body}",
        })
        with pytest.raises(InputError) as expected:
            load_dataset_rows(tmp_path)
        with pytest.raises(InputError) as got:
            load_dataset(tmp_path)
        assert str(got.value) == str(expected.value)
        assert str(tmp_path / name) in str(got.value)
        if row is not None:
            assert f"row {row}:" in str(got.value)

    @pytest.mark.parametrize("position", [0, 1, 137, 238, 239])
    @pytest.mark.parametrize("bad", ["x", "1.0,2", "nan", "17,0,1.0"])
    def test_defect_anywhere_in_a_long_file(self, tmp_path, position, bad):
        # 240 data rows: the search for the first unparsable row runs to full depth.
        write_dataset(generate(n=10, classes=2, informative=1, noise=0, seed=1), tmp_path)
        path = tmp_path / "values/sig0.csv"
        header, *rows = path.read_text().splitlines()
        assert len(rows) == 240
        if bad == "17,0,1.0":
            rows[position] = bad
        else:
            rows[position] = rows[position].rsplit(",", 1)[0] + "," + bad
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(InputError) as expected:
            load_dataset_rows(tmp_path)
        with pytest.raises(InputError, match=rf"sig0\.csv row {position + 2}: ") as got:
            load_dataset(tmp_path)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("row,kind", [
        ("0,1_0", "value"), ("0,١.٥", "value"), ("0_0,1.0", "integer"),
        ("٠,1.0", "integer"), ("\"0\",1.0", "integer"), ("0,\"1.5\"", "value"),
    ])
    def test_tokens_only_python_accepts(self, tmp_path, row, kind):
        # int()/float() take underscores and non-ASCII digits, and csv strips
        # quotes; numpy's parser, and so load_dataset, does not.
        write_minimal(tmp_path, mutate={"values/age.csv": f"segment_id,value\n{row}\n1,2.0\n"})
        load_dataset_rows(tmp_path)
        with pytest.raises(InputError, match=rf"age\.csv row 2: unparsable {kind}"):
            load_dataset(tmp_path)

    TRICKY = [
        "5e-324", "4.9406564584124654e-324", "2.5e-324", "2.4703282292062328e-324",
        "2.2250738585072009e-308", "2.2250738585072014e-308", "2.225073858507201e-308",
        "1e300", "-1e300", "1e-300", "-1e-300", "1.7976931348623157e308", "9007199254740993",
        "0.1000000000000000055511151231257827021181583404541015625",
        "0.30000000000000004", "0.299999999999999988897769753748434595763683319091796875",
        "1.00000000000000011102230246251565404236316680908203125",
        "123456789012345678901234567890", "-0.0", "0.0", ".5", "5.", "+7", "1E5",
    ]

    def test_numbers_parse_to_the_same_bits_as_float(self, tmp_path):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**63, size=3000, dtype=np.uint64) | (
            rng.integers(0, 2, size=3000, dtype=np.uint64) << np.uint64(63))
        randoms = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)]
        tokens = list(self.TRICKY)
        for x in randoms[:2000]:
            tokens += [repr(x), f"{x:.17g}", f"{x:.25e}"]
        tokens += [f"{x:.40g}" for x in randoms[2000:]]
        n = len(tokens)
        body = "".join(f"{i},{tok}\n" for i, tok in enumerate(tokens))
        write_minimal(tmp_path, mutate={
            "meta.json": json.dumps({"features": [{"name": "x", "kind": "scalar"}]}),
            "labels.csv": "segment_id,label\n" + "".join(f"{i},{'ab'[i % 2]}\n" for i in range(n)),
            "values/x.csv": "segment_id,value\n" + body,
        })
        got = np.array([seg.values[0] for seg in load_dataset(tmp_path).segments])
        want = np.array([float(tok) for tok in tokens])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestImmutability:
    def test_loaded_series_are_read_only(self, tmp_path):
        write_minimal(tmp_path)
        ds = load_dataset(tmp_path)
        with pytest.raises(ValueError):
            ds.segments[0].values[0][0] = 5.0
        with pytest.raises(ValueError):
            ds.columns[0].values[0] = 5.0
        with pytest.raises(ValueError):
            ds.columns[1][0] = 5.0

    def test_constructed_dataset_copies_and_freezes(self):
        x = np.array([1.0, 2.0])
        ds = make_dataset([("ts", "timeseries", [x, [3.0]])], ["p", "q"])
        x[0] = 9.0  # the caller's array is not the dataset's
        assert ds.segments[0].values[0].tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            ds.segments[0].values[0][1] = 5.0
        with pytest.raises(AttributeError):
            ds.segments = ()
        with pytest.raises(AttributeError):
            ds.segments[0].label = "q"

    def test_segments_are_views_of_the_columns(self):
        ds = generate(n=6, classes=2, informative=1, noise=1, seed=2)
        column = ds.columns[1]
        for i, seg in enumerate(ds.segments):
            view = seg.values[1]
            assert view.base is column.values
            assert view.tolist() == column.values[column.offsets[i]:][: column.lengths[i]].tolist()

    def test_malformed_value_rejected_at_construction(self):
        with pytest.raises(InputError, match="segment 1 feature 'ts': timeseries"):
            make_dataset([("ts", "timeseries", [[1.0], []])], ["p", "q"])
        descriptors = (FeatureDescriptor(0, "ts", FeatureKind.TIMESERIES),
                       FeatureDescriptor(1, "s", FeatureKind.SCALAR),
                       FeatureDescriptor(2, "c", FeatureKind.CATEGORICAL))
        for values, message in [
            ((np.array(["1.5"]), 1.0, "x"), "segment 0 feature 'ts': timeseries"),
            ((np.ones((2, 2)), 1.0, "x"), "segment 0 feature 'ts': timeseries"),
            (([1.0], "1.5", "x"), "segment 0 feature 's': scalar"),
            (([1.0], 1.0, 7), "segment 0 feature 'c': categorical"),
        ]:
            with pytest.raises(InputError, match=message):
                Dataset(descriptors, (Segment(0, values, "p"),), ("p",), (0,), ())
        # Lists and integer scalars are converted, as distance_matrix always did.
        ds = Dataset(descriptors, (Segment(0, ([1, 2], 3, "x"), "p"),), ("p",), (0,), ())
        assert ds.segments[0].values[0].dtype == np.float64 and ds.segments[0].values[1] == 3.0
        with pytest.raises(InputError, match="segment 0 has 2 values, expected 1"):
            Dataset((FeatureDescriptor(0, "s", FeatureKind.SCALAR),),
                    (Segment(0, (1.0, 2.0), "p"),), ("p",), (0,), ())


class TestHashedOnce:
    def test_split_shares_the_digest(self, monkeypatch):
        import mts_select.dataset as dataset_mod

        ds = make_dataset([("s", "scalar", list(map(float, range(10))))], ["a", "b"] * 5)
        calls = []
        digest = dataset_mod._content_digest
        monkeypatch.setattr(dataset_mod, "_content_digest", lambda d: calls.append(d) or digest(d))
        halves = split(ds, 0.5, seed=3)
        assert fingerprint(halves) == fingerprint(ds) == fingerprint(ds.with_split((0,), range(1, 10)))
        assert len(calls) == 1

    def test_concurrent_first_calls_hash_once(self, monkeypatch):
        import mts_select.dataset as dataset_mod

        ds = generate(n=8, classes=2, informative=1, noise=2, seed=4)
        calls = []
        digest = dataset_mod._content_digest

        def slow(d):
            calls.append(d)
            time.sleep(0.05)
            return digest(d)

        monkeypatch.setattr(dataset_mod, "_content_digest", slow)
        results = []
        threads = [threading.Thread(target=lambda: results.append(fingerprint(ds))) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(calls) == 1 and len(set(results)) == 1 and len(results) == 4

    def test_digest_equals_segment_walk(self):
        mixed = make_dataset(
            [
                ("ts", "timeseries", [[0.1, -2.5, 3.25], [7.0], [1e-9, 2.0]]),
                ("sc", "scalar", [1.5, -0.25, 1e300]),
                ("cat", "categorical", ["icu, 1", "ICU1", "w ard é"]),
            ],
            ["a", "b", "a"],
        )
        for ds in (mixed, generate(n=10, classes=2, informative=2, noise=1, seed=3, duplicates=(0,))):
            assert fingerprint(ds) == fingerprint_brute(ds)
