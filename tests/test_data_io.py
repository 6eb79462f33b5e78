import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcnaug.data_io import (
    DEGENERATE_STD,
    Dataset,
    TimeSeriesSample,
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

from helpers import dataset_from_arrays, datasets_equal


class TestParseUcr:
    def test_single_line_space_separated(self):
        ds = parse_ucr("1 0.1 -0.2")
        assert len(ds) == 1
        assert ds.samples[0].label == 1
        np.testing.assert_array_equal(ds.samples[0].values, [0.1, -0.2])

    @pytest.mark.parametrize("sep", ["\t", ",", "  ", " , "])
    def test_separator_variants(self, sep):
        ds = parse_ucr(sep.join(["-1", "1.5", "2.5", "3.5"]))
        assert ds.samples[0].label == -1
        np.testing.assert_array_equal(ds.samples[0].values, [1.5, 2.5, 3.5])

    def test_scientific_notation_labels(self):
        ds = parse_ucr("1.0000000e+00\t0.5\t0.25\n-1.0000000e+00\t0.125\t0.5")
        assert [s.label for s in ds.samples] == [1, -1]

    def test_ecg200_train_file(self, ecg200_paths):
        ds = load_ucr_file(ecg200_paths[0])
        assert len(ds) == 100
        assert ds.series_len == 96
        assert set(s.label for s in ds.samples) == {-1, 1}

    def test_order_preserved(self):
        ds = parse_ucr("1 10 20\n-1 30 40\n1 50 60")
        assert [s.values[0] for s in ds.samples] == [10, 30, 50]

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


class TestRoundTrip:
    def test_parse_serialize_parse(self, ecg200_paths):
        first = load_ucr_file(ecg200_paths[0])
        second = parse_ucr(serialize_ucr(first))
        assert datasets_equal(first, second)

    def test_random_values_roundtrip(self):
        gen = np.random.default_rng(3)
        ds = dataset_from_arrays(gen.standard_normal((7, 11)), [0, 1, 0, 1, 1, 0, 1])
        assert datasets_equal(ds, parse_ucr(serialize_ucr(ds)))


class TestRemapLabels:
    def test_raw_labels(self):
        ds = parse_ucr("-1 1 2\n1 3 4\n-1 5 6")
        out = remap_labels(ds)
        assert [s.label for s in out.samples] == [0, 1, 0]
        assert out.class_count == 2

    def test_identity_on_preprocessed(self):
        ds = parse_ucr("0 1 2\n1 3 4")
        out = remap_labels(ds)
        assert [s.label for s in out.samples] == [0, 1]

    def test_idempotent(self):
        ds = remap_labels(parse_ucr("-1 1 2\n1 3 4"))
        again = remap_labels(ds)
        assert datasets_equal(ds, again)

    def test_values_untouched(self):
        ds = parse_ucr("-1 1.25 -2.5")
        out = remap_labels(ds)
        np.testing.assert_array_equal(out.samples[0].values, [1.25, -2.5])

    def test_unsupported_label(self):
        with pytest.raises(UnsupportedLabelError):
            remap_labels(parse_ucr("2 1 2"))

    @pytest.mark.parametrize("text, found", [
        ("-1 1 2\n0 3 4\n1 5 6", "[-1, 0, 1]"),
        ("0 1 2\n-1 3 4", "[-1, 0]"),
    ])
    def test_mixed_conventions_rejected(self, text, found):
        with pytest.raises(UnsupportedLabelError, match=re.escape(found)):
            remap_labels(parse_ucr(text))


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
        assert a.samples == test.samples[:50]
        assert b.samples == test.samples[50:]

    def test_two_sample_split(self):
        ds = parse_ucr("1 1 2\n-1 3 4")
        a, b = split_test(ds)
        assert len(a) == len(b) == 1
        np.testing.assert_array_equal(a.samples[0].values, [1, 2])
        np.testing.assert_array_equal(b.samples[0].values, [3, 4])

    def test_odd_count_rejected(self):
        ds = parse_ucr("1 1 2\n-1 3 4\n1 5 6")
        with pytest.raises(SplitError):
            split_test(ds)

    def test_halves_concatenate_to_original(self):
        gen = np.random.default_rng(1)
        ds = dataset_from_arrays(gen.standard_normal((10, 5)),
                                 [0, 1] * 5, class_count=2)
        a, b = split_test(ds)
        assert a.samples + b.samples == ds.samples
        assert a.class_count == b.class_count == ds.class_count


class TestDatasetInvariants:
    def test_length_mismatch_rejected(self):
        s1 = TimeSeriesSample(np.ones(3), 0)
        s2 = TimeSeriesSample(np.ones(4), 1)
        with pytest.raises(DataFormatError):
            Dataset((s1, s2), 3, 2)

    def test_label_exceeding_class_count_rejected(self):
        s = TimeSeriesSample(np.ones(3), 5)
        with pytest.raises(DataFormatError):
            Dataset((s,), 3, 2)

    def test_values_are_read_only(self):
        s = TimeSeriesSample(np.ones(3), 0)
        with pytest.raises(ValueError):
            s.values[0] = 2.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataFormatError):
            Dataset((), 3, 2)
