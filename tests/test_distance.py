import itertools
import shutil
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mts_select import distance as distance_mod
from mts_select.dataset import SeriesColumn
from mts_select.distance import (
    _format_matrix,
    _numpy_matrix,
    _read_matrix,
    _write_matrix,
    cached_distance_matrix,
    categorical_distance,
    distance_matrix,
    dtw,
    scalar_distance,
    znormalize,
)
from mts_select.errors import InputError

from conftest import make_dataset
from oracles import PathTable, dtw_brute


finite_series = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


def row_dp(s, t, window=None):
    """Independent textbook formulation: row-by-row table fill, cells outside
    the band |i - j| <= max(window, |len(s) - len(t)|) left at inf."""
    band = None if window is None else max(window, abs(len(s) - len(t)))
    table = [[float("inf")] * (len(t) + 1) for _ in range(len(s) + 1)]
    table[0][0] = 0.0
    for i in range(1, len(s) + 1):
        for j in range(1, len(t) + 1):
            if band is not None and abs(i - j) > band:
                continue
            cost = abs(s[i - 1] - t[j - 1])
            table[i][j] = cost + min(table[i - 1][j], table[i][j - 1], table[i - 1][j - 1])
    return table[len(s)][len(t)]


@pytest.fixture
def numpy_kernel(monkeypatch):
    """Force the numpy sweep through the loader seam."""
    monkeypatch.setattr(distance_mod, "_compiled_kernel", lambda: None)


@pytest.fixture(scope="module")
def compiled_kernel():
    kernel = distance_mod._compiled_kernel()
    if kernel is None:
        pytest.skip("the compiled DTW kernel did not build, load or pass its self-check")
    return kernel


def series_dataset(cols):
    labels = ["a" if i % 2 == 0 else "b" for i in range(len(cols))]
    return make_dataset([("ts", "timeseries", cols)], labels)


def assert_matrix_matches_references(cols, window, reference):
    """distance_matrix equals per-pair dtw() and the reference, bit for bit."""
    M = distance_matrix(series_dataset(cols), 0, window=window).values
    assert M.tobytes() == M.T.tobytes()
    assert np.all(np.diag(M) == 0.0)
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            expected = reference(cols[i], cols[j], window)
            assert M[i, j] == dtw(cols[i], cols[j], window=window) == expected, (i, j, window)
    return M


class TestDtw:
    def test_identical_sequences(self):
        assert dtw([1, 2, 3], [1, 2, 3]) == 0.0

    def test_single_elements(self):
        assert dtw([0], [5]) == 5.0

    def test_unequal_lengths(self):
        # Brute-force enumeration over the 3x2 grid gives 1 via the path
        # (0,0), (1,1), (2,1).
        assert dtw_brute([1, 3, 4], [1, 4]) == 1.0
        assert dtw([1, 3, 4], [1, 4]) == 1.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(InputError, match="nonempty"):
            dtw([], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError, match="non-finite"):
            dtw([1.0, np.inf], [1.0])

    def test_matches_brute_force_short_sequences(self):
        values = [0.0, 1.0, 2.0]
        seqs = [list(s) for L in (1, 2, 3) for s in itertools.product(values, repeat=L)]
        for s in seqs[::3]:
            for t in seqs[::4]:
                assert dtw(s, t) == dtw_brute(s, t)

    def test_matches_plain_row_dp_on_long_sequences(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            s = rng.normal(size=rng.integers(5, 40)).tolist()
            t = rng.normal(size=rng.integers(5, 40)).tolist()
            assert dtw(s, t) == row_dp(s, t)

    @given(finite_series, finite_series)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, s, t):
        assert dtw(s, t) == dtw(t, s)

    @given(finite_series)
    @settings(max_examples=40, deadline=None)
    def test_self_distance_zero(self, s):
        assert dtw(s, s) == 0.0

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_elementwise_sum_for_equal_lengths(self, length, data):
        values = st.floats(min_value=-10, max_value=10, allow_nan=False)
        s = data.draw(st.lists(values, min_size=length, max_size=length))
        t = data.draw(st.lists(values, min_size=length, max_size=length))
        elementwise = sum(abs(a - b) for a, b in zip(s, t))
        assert dtw(s, t) <= elementwise + 1e-12

    def test_window_zero_forces_diagonal_path(self):
        s = [1.0, 5.0, 2.0, 8.0]
        t = [0.0, 1.0, 4.0, 8.0]
        assert dtw(s, t, window=0) == sum(abs(a - b) for a, b in zip(s, t))

    def test_negative_window_rejected(self, tmp_path):
        ds = series_dataset([[1.0, 5.0, 2.0], [2.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InputError, match="window must be nonnegative"):
            dtw([1.0, 2.0], [1.0], window=-1)
        with pytest.raises(InputError, match="window must be nonnegative"):
            distance_matrix(ds, 0, window=-3)
        with pytest.raises(InputError, match="window must be nonnegative"):
            cached_distance_matrix(ds, 0, tmp_path / "cache", window=-3)
        assert not (tmp_path / "cache").exists()

    def test_wide_window_matches_unconstrained(self):
        s = [1.0, 3.0, 4.0, 0.5]
        t = [1.0, 4.0]
        assert dtw(s, t, window=10) == dtw(s, t)


class KernelCases:
    """A DTW kernel against independent references; each subclass picks the kernel."""

    def test_lengths_vary_within_feature(self):
        rng = np.random.default_rng(8)
        cols = [rng.normal(size=L).tolist() for L in (1, 2, 3, 4, 5, 5, 3, 1, 4, 2, 5, 3)]
        assert_matrix_matches_references(cols, None, dtw_brute)

    @pytest.mark.parametrize("window", [0, 1, 2, 50])
    def test_window(self, window):
        # Lengths 1..5 give |a - b| up to 4, so windows 0, 1 and 2 are often
        # narrower than the length difference; 50 is wider than every series.
        rng = np.random.default_rng(100 + window)
        cols = [rng.normal(size=L).tolist() for L in (5, 1, 3, 4, 2, 5, 1, 4, 3)]
        assert_matrix_matches_references(cols, window, dtw_brute)

    @pytest.mark.parametrize("window", [None, 0])
    def test_length_one_series(self, window):
        cols = [[2.5], [1.0], [0.0, 4.0, 1.0], [1.0], [3.0, 3.0], [-1.0]]
        assert_matrix_matches_references(cols, window, dtw_brute)

    @pytest.mark.parametrize("window", [None, 1])
    def test_integer_tie_heavy_series(self, window):
        rng = np.random.default_rng(3)
        lengths = (4, 5, 3, 5, 4, 2, 5, 1, 3, 4)
        cols = [rng.integers(0, 3, size=L).astype(float).tolist() for L in lengths]
        assert_matrix_matches_references(cols, window, dtw_brute)

    @pytest.mark.parametrize("window", [None, 0, 3])
    def test_long_series_against_row_dp(self, window):
        rng = np.random.default_rng(17)
        cols = [rng.normal(size=L).tolist() for L in (12, 20, 16, 12, 19, 20)]
        assert_matrix_matches_references(cols, window, row_dp)

    # The compiled kernel runs 8 pairs of one shape side by side and the rest
    # one at a time: n equal-length series give n * (n - 1) / 2 such pairs.
    @pytest.mark.parametrize("n", [4, 7, 8, 9, 17])
    @pytest.mark.parametrize("window", [None, 1])
    def test_equal_length_series(self, n, window):
        rng = np.random.default_rng(n)
        cols = [rng.normal(size=4).tolist() for _ in range(n)]
        assert_matrix_matches_references(cols, window, dtw_brute)

    @pytest.mark.parametrize("lengths", [(6, 2), (2, 6)], ids=["a>b", "a<b"])
    @pytest.mark.parametrize("window", [None, 0, 1, 2, 3])
    def test_unequal_shape_groups(self, lengths, window):
        # Three series of each length give nine pairs of shape lengths, and
        # windows 0 to 3 are narrower than their length difference.
        rng = np.random.default_rng(31)
        cols = [rng.normal(size=L).tolist() for L in np.repeat(lengths, 3)]
        assert_matrix_matches_references(cols, window, dtw_brute)


class TestKernel(KernelCases):
    """The batched, streamed numpy anti-diagonal sweep."""

    @pytest.fixture(autouse=True)
    def kernel(self, numpy_kernel):
        pass

    @pytest.mark.parametrize("window", [None, 1])
    def test_pairs_span_several_batches(self, monkeypatch, window):
        rng = np.random.default_rng(23)
        cols = [rng.normal(size=L).tolist() for L in (3, 4) * 6]
        whole = assert_matrix_matches_references(cols, window, row_dp)
        batches = []
        stacked = distance_mod._dtw_stacked

        def recording(S, T, w):
            batches.append(S.shape[1])
            return stacked(S, T, w)

        # A pair of 3- or 4-long series needs 18 to 23 elements, so a cap of 40
        # splits every grid shape into batches of one or two pairs.
        monkeypatch.setattr(distance_mod, "_BATCH_ELEMENTS", 40)
        monkeypatch.setattr(distance_mod, "_dtw_stacked", recording)
        split = distance_matrix(series_dataset(cols), 0, window=window).values
        assert sum(batches) == 66 and max(batches) == 2
        assert split.tobytes() == whole.tobytes()


class TestCompiledKernel(KernelCases):
    """The compiled row-by-row kernel (_dtw.c); skipped where it did not load."""

    @pytest.fixture(autouse=True, scope="class")
    def kernel(self, compiled_kernel):
        pass

    def test_matches_path_enumeration_on_ternary_series(self, compiled_kernel):
        # Criterion 1's data: every series over {0, 1, 2} of length 1..5, every
        # ordered pair, against dtw_brute's enumeration in vectorized form.
        # The costs are small integers, so every sum is exact in any order.
        seqs = {L: np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=L))) for L in range(1, 6)}
        series = [s for S in seqs.values() for s in S]
        upper = compiled_kernel(SeriesColumn.concat(series), None)
        # Lower triangle from the reversed list, so each (i, j) is dtw(series[i], series[j]).
        full = upper + compiled_kernel(SeriesColumn.concat(series[::-1]), None)[::-1, ::-1]
        start = dict(zip(seqs, np.cumsum([0] + [len(S) for S in seqs.values()])))
        for a, S in seqs.items():
            for b, T in seqs.items():
                table = PathTable(a, b)
                for k, s in enumerate(S):
                    costs = np.abs(s[None, :, None] - T[:, None, :]).reshape(len(T), a * b)
                    flat = np.concatenate([costs, np.zeros((len(T), 1))], axis=1)
                    oracle = flat[:, table.idx].sum(axis=2).min(axis=1)
                    got = full[start[a] + k, start[b] : start[b] + len(T)]
                    assert np.array_equal(got, oracle), (a, b, k)

    @given(
        st.lists(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=20),
            min_size=2,
            max_size=8,
        ),
        st.one_of(st.none(), st.integers(0, 5)),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_numpy_kernel(self, compiled_kernel, cols, window):
        series = [np.array(c) for c in cols]
        expected = _numpy_matrix(series, window)
        assert compiled_kernel(SeriesColumn.concat(series), window).tobytes() == expected.tobytes()

    def assert_numpy_bits(self, kernel, series, window):
        got = kernel(SeriesColumn.concat(series), window)
        assert got.tobytes() == _numpy_matrix(series, window).tobytes()

    @pytest.mark.parametrize("window", [None, 0, 2])
    def test_ragged_feature_forms_some_groups(self, compiled_kernel, window):
        # Lengths 5 and 7 repeat enough to fill groups of (5, 5), (5, 7),
        # (7, 5) and (7, 7) pairs; the others stay alone, shuffled among them.
        rng = np.random.default_rng(12)
        lengths = rng.permutation([5] * 6 + [7] * 5 + [1, 2, 3, 4, 6, 8, 9, 10])
        self.assert_numpy_bits(compiled_kernel, [rng.normal(size=L) for L in lengths], window)

    @pytest.mark.parametrize("window", [None, 7])
    def test_long_series_fill_the_scratch_rows(self, compiled_kernel, window):
        # Five 200-long series give a full group and two lone pairs; the
        # 230-long one sets the scratch size and pairs with them alone.
        rng = np.random.default_rng(13)
        series = [rng.normal(size=L) for L in (200,) * 5 + (230,)]
        self.assert_numpy_bits(compiled_kernel, series, window)

    @given(
        st.lists(st.integers(1, 9), min_size=2, max_size=3, unique=True).flatmap(
            lambda lengths: st.lists(
                st.sampled_from(lengths).flatmap(
                    lambda L: st.lists(st.integers(-4, 4).map(float), min_size=L, max_size=L)),
                min_size=6,
                max_size=24,
            )
        ),
        st.one_of(st.none(), st.integers(0, 4)),
    )
    @settings(max_examples=40, deadline=None)
    def test_few_lengths_bit_identical_to_numpy_kernel(self, compiled_kernel, cols, window):
        # Integer values give ties between up, diag and left in most cells.
        self.assert_numpy_bits(compiled_kernel, [np.array(c) for c in cols], window)


class TestKernelLoader:
    """Every way the compiled kernel can fail to load leaves the numpy sweep's bits."""

    COLS = [[0.5, 2.0, 1.0], [1.0], [3.0, 0.0, 2.5, 1.5], [2.0, 2.0], [0.0, 1.0, 4.0]]

    @pytest.fixture
    def kernel_dir(self, monkeypatch, tmp_path):
        """A loader that has not run yet in this process, caching into tmp_path."""
        monkeypatch.setattr(distance_mod, "_kernel", distance_mod._UNLOADED)
        monkeypatch.setattr(distance_mod, "_KERNEL_DIR", tmp_path / "__pycache__")
        return tmp_path / "__pycache__"

    def numpy_bits(self, window=None):
        return _numpy_matrix([np.array(c) for c in self.COLS], window).tobytes()

    def matrix_bits_quietly(self, window=None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            upper = distance_matrix(series_dataset(self.COLS), 0, window=window).values
        return np.triu(upper).tobytes()

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_kernel_loads_where_a_compiler_exists(self):
        # Otherwise a kernel that fails its self-check would only skip the tests above.
        assert distance_mod._compiled_kernel() is not None

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_kernel_compiles_without_warnings(self, tmp_path):
        command = [*distance_mod._COMPILE, "-Wall", "-Wextra", "-Werror",
                   "-o", str(tmp_path / "dtw.so"), str(distance_mod._KERNEL_SOURCE)]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_no_compiler_on_path(self, kernel_dir, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path / "no-such-bin"))
        for window in (None, 0):
            assert self.matrix_bits_quietly(window) == self.numpy_bits(window)
        assert distance_mod._kernel is None

    def test_unwritable_cache_directory(self, kernel_dir, monkeypatch, tmp_path):
        # A directory below a regular file cannot be created, even by root.
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(distance_mod, "_KERNEL_DIR", tmp_path / "file" / "__pycache__")
        assert self.matrix_bits_quietly() == self.numpy_bits()
        assert distance_mod._kernel is None

    def test_concurrent_first_calls_build_once(self, compiled_kernel, kernel_dir, monkeypatch):
        builds = []
        build = distance_mod._build

        def slow_build(path):
            builds.append(path)
            time.sleep(0.2)  # the other thread's first call arrives meanwhile
            build(path)

        monkeypatch.setattr(distance_mod, "_build", slow_build)
        barrier = threading.Barrier(4)
        results = []

        def first_call():
            barrier.wait()
            results.append(distance_matrix(series_dataset(self.COLS), 0).values)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_call) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1 and len(results) == 4
        assert all(np.triu(M).tobytes() == self.numpy_bits() for M in results)
        assert distance_mod._kernel is not None

    def test_garbage_library_is_rebuilt(self, compiled_kernel, kernel_dir):
        path = distance_mod._kernel_path(kernel_dir)
        kernel_dir.mkdir()
        path.write_bytes(b"not a shared library")
        assert self.matrix_bits_quietly() == self.numpy_bits()
        assert distance_mod._kernel is not None
        assert path.read_bytes() != b"not a shared library"

    def test_self_check_mismatch_falls_back(self, kernel_dir, monkeypatch):
        compiled_matrix = distance_mod._compiled_matrix

        def one_ulp_off(*args):
            upper = compiled_matrix(*args)
            return np.triu(np.nextafter(upper, np.inf), 1)

        monkeypatch.setattr(distance_mod, "_compiled_matrix", one_ulp_off)
        assert self.matrix_bits_quietly() == self.numpy_bits()
        assert distance_mod._kernel is None


class TestScalarAndCategorical:
    @pytest.mark.parametrize("a,b,expected", [(3.0, 3.0, 0.0), (1.5, 4.0, 2.5), (-2.0, 2.0, 4.0)])
    def test_scalar(self, a, b, expected):
        assert scalar_distance(a, b) == expected

    def test_scalar_non_finite(self):
        with pytest.raises(InputError):
            scalar_distance(np.nan, 1.0)

    @pytest.mark.parametrize("a,b,expected", [("M", "M", 0.0), ("M", "F", 1.0), ("ICU1", "icu1", 1.0)])
    def test_categorical_exact_tokens(self, a, b, expected):
        assert categorical_distance(a, b) == expected


class TestDistanceMatrix:
    def test_scalar_pairwise(self, scalar_dataset):
        M = distance_matrix(scalar_dataset, 0).values
        np.testing.assert_array_equal(M, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])

    def test_identical_series_zero_matrix(self):
        ds = make_dataset([("ts", "timeseries", [[1, 2, 3], [1, 2, 3]])], ["a", "b"])
        np.testing.assert_array_equal(distance_matrix(ds, 0).values, np.zeros((2, 2)))

    def test_mixed_length_series(self):
        ds = make_dataset(
            [("ts", "timeseries", [[1, 3, 4], [1, 4], [1, 3, 4]])],
            ["a", "b", "a"],
        )
        M = distance_matrix(ds, 0).values
        assert M[0, 1] == 1.0
        assert M[0, 2] == 0.0
        np.testing.assert_array_equal(M, M.T)
        np.testing.assert_array_equal(np.diag(M), 0.0)

    def test_matrix_matches_pairwise_dtw_bitwise(self, monkeypatch):
        rng = np.random.default_rng(5)
        cols = [rng.normal(size=rng.integers(3, 9)).tolist() for _ in range(7)]
        ds = make_dataset([("ts", "timeseries", cols)], ["a", "b", "a", "b", "a", "b", "a"])
        # On the kernel that loaded (compiled where it builds), then on numpy.
        matrices = []
        for force_numpy in (False, True):
            with monkeypatch.context() as patch:
                if force_numpy:
                    patch.setattr(distance_mod, "_compiled_kernel", lambda: None)
                M = distance_matrix(ds, 0).values
                for i in range(7):
                    for j in range(7):
                        if i != j:
                            assert M[i, j] == dtw(cols[i], cols[j])
                matrices.append(M.tobytes())
        assert matrices[0] == matrices[1]

    def test_categorical_matrix(self):
        ds = make_dataset([("c", "categorical", ["x", "y", "x"])], ["a", "b", "a"])
        np.testing.assert_array_equal(
            distance_matrix(ds, 0).values, [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        )

    def test_bad_feature_id(self, scalar_dataset):
        with pytest.raises(InputError, match="out of range"):
            distance_matrix(scalar_dataset, 3)

    def test_znorm_flag(self):
        base = [1.0, 2.0, 4.0]
        scaled = [10.0, 20.0, 40.0]
        ds = make_dataset([("ts", "timeseries", [base, scaled])], ["a", "b"])
        raw = distance_matrix(ds, 0).values
        normed = distance_matrix(ds, 0, znorm=True).values
        assert raw[0, 1] > 0
        # Same shape after normalization: distance collapses to ~0.
        assert normed[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_znormalize_constant_series(self):
        np.testing.assert_array_equal(znormalize(np.array([2.0, 2.0, 2.0])), [0.0, 0.0, 0.0])


    def test_scalar_matrix_matches_pairwise_loop(self):
        rng = np.random.default_rng(9)
        col = (rng.normal(size=9) * 1e3).tolist()
        ds = make_dataset([("s", "scalar", col)], ["a", "b", "c"] * 3)
        M = distance_matrix(ds, 0).values
        for i in range(9):
            for j in range(9):
                assert M[i, j] == scalar_distance(col[min(i, j)], col[max(i, j)])

    def test_non_finite_scalar_names_segment(self):
        ds = make_dataset([("s", "scalar", [0.0, np.nan, 2.0])], ["a", "b", "a"])
        with pytest.raises(InputError, match=r"'s' segment 1: .*finite"):
            distance_matrix(ds, 0)

    def test_categorical_matrix_matches_pairwise_loop(self):
        tokens = ["M", "F", "m", "M", "F", "", "ICU1", "icu1", "M"]
        ds = make_dataset([("c", "categorical", tokens)], ["a", "b", "c"] * 3)
        M = distance_matrix(ds, 0).values
        for i in range(9):
            for j in range(9):
                assert M[i, j] == categorical_distance(tokens[i], tokens[j])


class TestCache:
    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        cols = [rng.normal(size=6).tolist() for _ in range(5)]
        ds = make_dataset([("ts", "timeseries", cols)], ["a", "b", "a", "b", "a"])
        first = cached_distance_matrix(ds, 0, tmp_path)
        files = list(tmp_path.rglob("M_0.csv"))
        assert len(files) == 1
        second = cached_distance_matrix(ds, 0, tmp_path)
        assert np.array_equal(first.values, second.values)
        assert first.values.tobytes() == second.values.tobytes()

    def test_cache_key_includes_metric_params(self, tmp_path):
        ds = make_dataset([("ts", "timeseries", [[1, 5, 2], [2, 2, 2]])], ["a", "b"])
        cached_distance_matrix(ds, 0, tmp_path)
        cached_distance_matrix(ds, 0, tmp_path, window=0)
        cached_distance_matrix(ds, 0, tmp_path, znorm=True)
        assert len(list(tmp_path.rglob("M_0.csv"))) == 3

    def test_none_cache_dir_computes(self, scalar_dataset):
        M = cached_distance_matrix(scalar_dataset, 0, None)
        np.testing.assert_array_equal(M.values, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])

    def test_interleaved_writers_do_not_mix(self, tmp_path, monkeypatch):
        path = tmp_path / "M_0.csv"
        first = np.array([[0.0, 1.5], [1.5, 0.0]])
        second = np.array([[0.0, 2.25], [2.25, 0.0]])
        format_matrix = distance_mod._format_matrix

        def format_with_a_rival_write(values):
            if values is first:  # our temp file is open
                _write_matrix(path, second)  # another process finishes its write meanwhile
            return format_matrix(values)

        monkeypatch.setattr(distance_mod, "_format_matrix", format_with_a_rival_write)
        _write_matrix(path, first)
        assert _read_matrix(path, 2).tobytes() == first.tobytes()
        assert [p.name for p in tmp_path.iterdir()] == ["M_0.csv"]

    def test_concurrent_writers_stress(self, tmp_path):
        path = tmp_path / "M_0.csv"
        matrices = []
        for w in range(4):
            upper = np.triu(np.full((40, 40), 0.1 * (w + 1)), 1)
            matrices.append(upper + upper.T)
        errors = []

        def writer(values):
            try:
                for _ in range(15):
                    _write_matrix(path, values)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(M,)) for M in matrices]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        final = _read_matrix(path, 40).tobytes()
        assert any(final == M.tobytes() for M in matrices)
        assert [p.name for p in tmp_path.iterdir()] == ["M_0.csv"]

    @pytest.mark.parametrize("seed", range(6))
    def test_writer_bytes_equal_per_element_repr(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        pool = np.array([0.0, 5e-324, 1e300, 1.0, 2.0, 7.0, 0.1, 1 / 3, 2.5e-8, 123456789.0])
        upper = np.triu(rng.choice(pool, size=(n, n)) * rng.choice([1.0, 3.0], size=(n, n)), 1)
        cases = [upper + upper.T]
        # Not a distance matrix: asymmetric, a nonzero diagonal and -0.0 next to 0.0.
        odd = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-300, 300, size=(n, n))
        odd[rng.random((n, n)) < 0.3] = -0.0
        cases.append(odd)
        for values in cases:
            path = tmp_path / "M_0.csv"
            _write_matrix(path, values)
            old = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in values)
            assert path.read_bytes() == old.encode("utf-8")
            assert _format_matrix(values) == old

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            ({(0, 1): np.nan, (1, 0): np.nan}, "non-finite"),
            ({(0, 2): np.inf, (2, 0): np.inf}, "non-finite"),
            ({(1, 2): -1.0, (2, 1): -1.0}, "negative"),
            ({(0, 1): 0.5}, "not bitwise symmetric"),
            ({(1, 1): 0.25}, "nonzero diagonal"),
        ],
    )
    def test_corrupt_cache_file_rejected(self, tmp_path, corrupt, message):
        ds = make_dataset([("ts", "timeseries", [[1, 5, 2], [2, 2, 2], [0, 1]])], ["a", "b", "a"])
        values = cached_distance_matrix(ds, 0, tmp_path).values.copy()
        for idx, v in corrupt.items():
            values[idx] = v
        (path,) = tmp_path.rglob("M_0.csv")
        _write_matrix(path, values)
        with pytest.raises(InputError, match=rf"M_0\.csv.*{message}"):
            cached_distance_matrix(ds, 0, tmp_path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0.0,1.0\n1.0,0.0\n", "shape"),
            ("0.0,1.0,2.0\n1.0,zero,3.0\n2.0,3.0,0.0\n", "not a table"),
            ("0.0,1.0,2.0\n1.0,0.0\n2.0,3.0,0.0\n", "not a table"),
            ("# cached\n0.0,1.0,2.0\n1.0,0.0,3.0\n2.0,3.0,0.0\n", "not a table"),
            ("0.0,1.0,2.0,\n1.0,0.0,3.0,\n2.0,3.0,0.0,\n", "not a table"),
            ("", "shape"),
            ("0.0,1_0,2.0\n1_0,0.0,3.0\n2.0,3.0,0.0\n", "not a table"),
            ("0.0,1.0,2.0\n1.0,0.0,3.0\n2.0,3.0\n", "not a table"),
        ],
    )
    def test_malformed_cache_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "M_0.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=rf"M_0\.csv.*{message}"):
            _read_matrix(path, 3)
