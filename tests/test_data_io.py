import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcnaug.data_io import (
    DEGENERATE_STD,
    Dataset,
    load_ucr_file,
    parse_ucr,
    remap_labels,
    serialize_ucr,
    split_test,
    znormalize,
)
from fcnaug.errors import (
    DataFormatError,
    DataParseError,
    SplitError,
    UnsupportedLabelError,
)
from fcnaug.pipeline import DataSplits, check_run

from helpers import bits_equal, datasets_equal


class TestParseUcr:
    def test_single_line_space_separated(self):
        ds = parse_ucr("1 0.1 -0.2")
        assert len(ds) == 1
        assert ds.labels.tolist() == [1]
        np.testing.assert_array_equal(ds.values, [[0.1, -0.2]])

    @pytest.mark.parametrize("sep", ["\t", ",", "  ", " , "])
    def test_separator_variants(self, sep):
        ds = parse_ucr(sep.join(["-1", "1.5", "2.5", "3.5"]))
        assert ds.labels.tolist() == [-1]
        np.testing.assert_array_equal(ds.values, [[1.5, 2.5, 3.5]])

    def test_scientific_notation_labels(self):
        ds = parse_ucr("1.0000000e+00\t0.5\t0.25\n-1.0000000e+00\t0.125\t0.5")
        assert ds.labels.tolist() == [1, -1]

    def test_ecg200_train_file(self, ecg200_paths):
        ds = load_ucr_file(ecg200_paths[0])
        assert len(ds) == 100
        assert ds.series_len == 96
        assert set(ds.labels.tolist()) == {-1, 1}

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes(b"1\t0.5\t\xff\n")
        with pytest.raises(DataParseError, match="not UTF-8"):
            load_ucr_file(path)

    def test_order_preserved(self):
        ds = parse_ucr("1 10 20\n-1 30 40\n1 50 60")
        assert ds.values[:, 0].tolist() == [10, 30, 50]

    def test_ragged_lines_rejected(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_ucr("1 " + " ".join(["0"] * 97) + "\n1 " + " ".join(["0"] * 95))

    def test_non_numeric_field(self):
        with pytest.raises(DataParseError, match="line 1"):
            parse_ucr("1 0.5 spam")

    def test_non_integer_label(self):
        with pytest.raises(DataParseError):
            parse_ucr("1.5 0.5 0.25")

    def test_non_finite_value(self):
        with pytest.raises(DataParseError):
            parse_ucr("1 0.5 inf")

    def test_empty_input(self):
        with pytest.raises(DataFormatError):
            parse_ucr("")
        with pytest.raises(DataFormatError):
            parse_ucr("\n   \n")

    def test_label_only_line(self):
        with pytest.raises(DataFormatError):
            parse_ucr("1")

    def test_blank_lines_skipped(self):
        ds = parse_ucr("\n1 1 2\n\n-1 3 4\n")
        assert len(ds) == 2

    @pytest.mark.parametrize("text, class_count", [
        ("-1 1\n-1 2", 2), ("0 1", 2), ("1 1\n3 2", 4),
    ])
    def test_class_count_covers_labels(self, text, class_count):
        assert parse_ucr(text).class_count == class_count

    def test_label_beyond_int64_rejected(self):
        with pytest.raises(DataParseError, match="line 2: label '1e20' does not fit"):
            parse_ucr("1 0.5\n1e20 0.5")

    @pytest.mark.parametrize("text, error, message", [
        ("1", DataFormatError, "line 1: expected a label and at least one value"),
        ("1 0.5\n1 0.5 spam", DataParseError,
         "line 2: non-numeric field (could not convert string to float: 'spam')"),
        ("2 1\n-1 nan", DataParseError, "line 2: non-finite value"),
        ("1.5 0.5 0.25", DataParseError, "line 1: label '1.5' is not an integer"),
        ("1 0 0\n\n1 0", DataFormatError, "line 3: 1 values, expected 2"),
        ("\n  \n", DataFormatError, "empty input: no data lines found"),
    ])
    def test_error_messages(self, text, error, message):
        with pytest.raises(error) as info:
            parse_ucr(text)
        assert str(info.value) == message


@st.composite
def random_datasets(draw):
    """Datasets of 1-20 series of 1-30 finite values, -0.0 included, labels -1/0/1."""
    n, length = draw(st.integers(1, 20)), draw(st.integers(1, 30))
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
    values = draw(st.lists(finite, min_size=n * length, max_size=n * length))
    labels = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    return Dataset(np.array(values).reshape(n, length), labels, 2)


class TestRoundTrip:
    def test_parse_serialize_parse(self, ecg200_paths):
        first = load_ucr_file(ecg200_paths[0])
        second = parse_ucr(serialize_ucr(first))
        assert datasets_equal(first, second)

    def test_random_values_roundtrip(self):
        gen = np.random.default_rng(3)
        ds = Dataset(gen.standard_normal((7, 11)), [0, 1, 0, 1, 1, 0, 1], 2)
        assert datasets_equal(ds, parse_ucr(serialize_ucr(ds)))

    @settings(max_examples=200, deadline=None)
    @given(ds=random_datasets())
    @example(ds=Dataset([[-0.0, 0.0, -0.0]], [-1], 2))
    @example(ds=Dataset([[5e-324, -1.7976931348623157e308]], [0], 2))
    def test_roundtrip_property(self, ds):
        assert datasets_equal(ds, parse_ucr(serialize_ucr(ds)))


class TestRemapLabels:
    def test_raw_labels(self):
        ds = parse_ucr("-1 1 2\n1 3 4\n-1 5 6")
        out = remap_labels(ds)
        assert out.labels.tolist() == [0, 1, 0]
        assert out.class_count == 2

    def test_identity_on_preprocessed(self):
        ds = parse_ucr("0 1 2\n1 3 4")
        out = remap_labels(ds)
        assert out.labels.tolist() == [0, 1]

    def test_idempotent(self):
        ds = remap_labels(parse_ucr("-1 1 2\n1 3 4"))
        again = remap_labels(ds)
        assert datasets_equal(ds, again)

    def test_values_untouched(self):
        ds = parse_ucr("-1 1.25 -2.5")
        out = remap_labels(ds)
        np.testing.assert_array_equal(out.values, [[1.25, -2.5]])

    @pytest.mark.parametrize("text, sample, label", [
        ("2 1 2", 1, 2), ("1 1\n2 2\n3 3", 2, 2), ("-1 1\n0 2\n5 3", 3, 5), ("1 1\n-4 2", 2, -4),
    ])
    def test_unsupported_label_names_first_sample(self, text, sample, label):
        with pytest.raises(UnsupportedLabelError) as info:
            remap_labels(parse_ucr(text))
        assert str(info.value) == (f"sample {sample} has unsupported label {label}; "
                                   "the accepted label conventions are -1/1 and 0/1")

    @pytest.mark.parametrize("text, found", [
        ("-1 1 2\n0 3 4\n1 5 6", "[-1, 0, 1]"),
        ("0 1 2\n-1 3 4", "[-1, 0]"),
    ])
    def test_mixed_conventions_rejected(self, text, found):
        with pytest.raises(UnsupportedLabelError) as info:
            remap_labels(parse_ucr(text))
        assert str(info.value) == (f"labels {found} mix the -1/1 and 0/1 conventions; "
                                   "-1 and 0 would merge into one class")


class TestZnormalize:
    def test_three_point_oracle(self):
        # mean 2, population std sqrt(2/3)
        out, degenerate = znormalize([1.0, 2.0, 3.0])
        expected = 1.0 / np.sqrt(2.0 / 3.0)
        assert not degenerate
        np.testing.assert_allclose(out, [-expected, 0.0, expected], atol=1e-12)
        np.testing.assert_allclose(out, [-1.224744871391589, 0.0, 1.224744871391589],
                                   atol=1e-12)

    def test_flat_series_degenerate(self):
        out, degenerate = znormalize([5.0, 5.0, 5.0])
        assert degenerate
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])

    def test_idempotence(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal(50)
        once, _ = znormalize(x)
        twice, _ = znormalize(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_output_statistics_property(self):
        gen = np.random.default_rng(7)
        for _ in range(100):
            x = gen.uniform(-50, 50) + gen.uniform(0.1, 20) * gen.standard_normal(
                gen.integers(2, 200)
            )
            out, degenerate = znormalize(x)
            assert not degenerate
            assert abs(out.mean()) < 1e-9
            assert abs(out.std() - 1.0) < 1e-9


@st.composite
def normalize_inputs(draw):
    """Random, constant and tiny-scale series of 1 to 300 points."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["random", "constant", "tiny"]))
    if kind == "constant":
        values = np.full(n, draw(st.floats(-1e6, 1e6)))
    else:
        values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    offset = draw(st.floats(-100.0, 100.0))
    # Tiny series straddle DEGENERATE_STD; the others span many magnitudes.
    exponent = draw(st.floats(-12.0, -6.0) if kind == "tiny" else st.floats(-6.0, 6.0))
    return offset + values * 10.0**exponent


class TestZnormalizeReference:
    @settings(max_examples=500, deadline=None)
    @given(values=normalize_inputs())
    @example(values=np.array([3.5]))
    @example(values=np.array([1.0, 1.0 + 2e-8]))
    def test_equals_mean_std_formula(self, values):
        out, degenerate = znormalize(values)
        assert degenerate == (values.std() < DEGENERATE_STD)
        if degenerate:
            expected = np.zeros_like(values)
        else:
            expected = (values - values.mean()) / values.std()
        assert out.shape == expected.shape
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))


class TestSplitTest:
    def test_ecg200_split(self, ecg200_paths):
        test = load_ucr_file(ecg200_paths[1])
        a, b = split_test(test)
        assert len(a) == len(b) == 50
        for half, rows in ((a, slice(50)), (b, slice(50, None))):
            assert bits_equal(half.values, test.values[rows])
            assert np.array_equal(half.labels, test.labels[rows])

    def test_two_sample_split(self):
        ds = parse_ucr("1 1 2\n-1 3 4")
        a, b = split_test(ds)
        assert len(a) == len(b) == 1
        np.testing.assert_array_equal(a.values, [[1, 2]])
        np.testing.assert_array_equal(b.values, [[3, 4]])

    def test_odd_count_rejected(self):
        ds = parse_ucr("1 1 2\n-1 3 4\n1 5 6")
        with pytest.raises(SplitError):
            split_test(ds)

    def test_halves_concatenate_to_original(self):
        gen = np.random.default_rng(1)
        ds = Dataset(gen.standard_normal((10, 5)), [0, 1] * 5, 2)
        a, b = split_test(ds)
        assert bits_equal(np.concatenate([a.values, b.values]), ds.values)
        assert np.array_equal(np.concatenate([a.labels, b.labels]), ds.labels)
        assert a.class_count == b.class_count == ds.class_count


def _holdout(ds: Dataset) -> tuple[Dataset, Dataset]:
    return check_run(DataSplits(ds, ds, ds), [], 0.7, "holdout:0.5")


class TestDatasetInvariants:
    @pytest.mark.parametrize("values, labels, class_count, error, message", [
        (np.ones((2, 3)), [0, 1, 0], 2, DataFormatError, "3 labels for 2 samples"),
        (np.ones((2, 3)), [0], 2, DataFormatError, "1 labels for 2 samples"),
        (np.ones(3), [0, 0, 0], 2, DataFormatError, "non-empty (samples, length) matrix"),
        (np.ones((0, 3)), [], 2, DataFormatError, "non-empty (samples, length) matrix"),
        (np.ones((2, 0)), [0, 1], 2, DataFormatError, "non-empty (samples, length) matrix"),
        ([[1.0, np.nan]], [0], 2, DataParseError, "non-finite"),
        ([[1.0], [-np.inf]], [0, 1], 2, DataParseError, "non-finite"),
        (np.ones((3, 2)), [0, 5, 7], 2, DataFormatError, "sample 2 has label 5 >= class_count 2"),
        (np.ones((1, 2)), [0], 0, DataFormatError, "class_count must be positive"),
    ], ids=["labels-long", "labels-short", "1-D", "no-rows", "no-columns", "nan", "inf",
            "label-over", "no-classes"])
    def test_rejects(self, values, labels, class_count, error, message):
        with pytest.raises(error, match=re.escape(message)):
            Dataset(values, labels, class_count)

    def test_owns_its_copy(self):
        values, labels = np.arange(6.0).reshape(2, 3), np.array([0, 1])
        ds = Dataset(values, labels, 2)
        values[0, 0], labels[0] = 99.0, 1
        np.testing.assert_array_equal(ds.values, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_shape_derived(self):
        ds = Dataset(np.ones((4, 7)), [0, 1, 1, 0], 2)
        assert (len(ds), ds.series_len) == (4, 7)
        assert ds.values.dtype == np.float64 and ds.labels.dtype == np.int64

    @pytest.mark.parametrize("derive", [
        lambda ds: ds,
        lambda ds: ds.subset([3, 0]),
        lambda ds: split_test(ds)[0],
        lambda ds: split_test(ds)[1],
        lambda ds: _holdout(ds)[0],
        lambda ds: _holdout(ds)[1],
        remap_labels,
        lambda ds: parse_ucr(serialize_ucr(ds)),
    ], ids=["constructed", "subset", "probe-half", "eval-half", "holdout-train",
            "holdout-val", "remapped", "parsed"])
    @pytest.mark.parametrize("field", ["values", "labels"])
    def test_read_only(self, derive, field):
        ds = derive(Dataset(np.arange(24.0).reshape(4, 6), [0, 1, 1, 0], 2))
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds, field)[0] = 1
