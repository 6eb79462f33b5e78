import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fcnaug
from fcnaug.augmentation import (
    _spline_plan,
    augment_sample,
    slice_window,
    spline_resample,
    window_length,
)
from fcnaug.data_io import serialize_ucr
from fcnaug.errors import InterpolationError, ParameterError
from fcnaug.rng import RngStream

from helpers import make_synthetic, reference_spline_resample


class TestSliceWindow:
    def test_ecg200_geometry(self):
        assert window_length(96, 0.7) == 67
        series = np.arange(96.0)
        starts = set()
        for i in range(500):
            w = slice_window(series, 0.7, RngStream(11).child(i))
            assert w.length == 67
            assert 0 <= w.start <= 29
            np.testing.assert_array_equal(w.values, series[w.start : w.start + 67])
            starts.add(w.start)
        assert starts <= set(range(30))

    def test_ten_point_window(self):
        series = np.arange(10.0)
        starts = {slice_window(series, 0.7, RngStream(0).child(i)).start
                  for i in range(200)}
        assert starts == {0, 1, 2, 3}

    def test_full_fraction_is_identity(self):
        series = np.arange(8.0)
        w = slice_window(series, 1.0, RngStream(5))
        assert w.start == 0 and w.length == 8
        np.testing.assert_array_equal(w.values, series)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.0001, 2.0])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ParameterError):
            slice_window(np.arange(10.0), fraction, RngStream(0))

    def test_window_too_short(self):
        with pytest.raises(ParameterError):
            slice_window(np.arange(10.0), 0.1, RngStream(0))

    def test_deterministic_for_stream(self):
        series = np.sin(np.arange(50.0))
        a = slice_window(series, 0.7, RngStream(42, "w"))
        b = slice_window(series, 0.7, RngStream(42, "w"))
        assert a.start == b.start


class TestSplineResample:
    def test_linear_ramp_stays_linear(self):
        ramp = 0.25 + 0.5 * np.arange(67.0)
        out = spline_resample(ramp, 96)
        grid = np.linspace(0.0, 66.0, 96)
        assert np.max(np.abs(out - (0.25 + 0.5 * grid))) < 1e-9

    def test_cubic_polynomial_oracle(self):
        # splines with not-a-knot ends reproduce any cubic exactly
        p = lambda x: x**3 - 2 * x**2 + 3
        knots = np.arange(10.0)
        out = spline_resample(p(knots), 25)
        grid = np.linspace(0.0, 9.0, 25)
        np.testing.assert_allclose(out, p(grid), atol=1e-8)

    def test_identity_at_knot_count(self):
        gen = np.random.default_rng(2)
        segment = gen.standard_normal(12)
        out = spline_resample(segment, 12)
        np.testing.assert_allclose(out, segment, atol=1e-9)

    def test_knot_interpolation_tight(self):
        gen = np.random.default_rng(4)
        segment = gen.standard_normal(9)
        # target 2m-1 puts every knot abscissa on the output grid
        out = spline_resample(segment, 17)
        np.testing.assert_allclose(out[::2], segment, atol=1e-12)

    def test_endpoints_preserved(self):
        gen = np.random.default_rng(6)
        segment = gen.standard_normal(20)
        out = spline_resample(segment, 55)
        assert abs(out[0] - segment[0]) < 1e-12
        assert abs(out[-1] - segment[-1]) < 1e-12

    def test_too_few_knots(self):
        with pytest.raises(InterpolationError):
            spline_resample(np.ones(3), 10)

    def test_bad_target_length(self):
        with pytest.raises(ParameterError):
            spline_resample(np.ones(5), 1)


@st.composite
def spline_segments(draw):
    """Random, flat and integer-valued segments of 4 to 200 knots."""
    m = draw(st.integers(4, 200))
    kind = draw(st.sampled_from(["random", "flat", "integer"]))
    if kind == "integer":
        return np.array(draw(st.lists(st.integers(-1000, 1000), min_size=m, max_size=m)),
                        dtype=np.float64)
    if kind == "flat":
        values = [draw(st.floats(-1.0, 1.0))] * m
    else:
        values = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    return np.array(values) * 10.0 ** draw(st.floats(-6.0, 6.0))


@pytest.fixture(scope="module")
def cubic_spline():
    return pytest.importorskip("scipy.interpolate").CubicSpline


class TestSplineOracle:
    @settings(max_examples=300, deadline=None)
    @given(segment=spline_segments(), target_len=st.integers(2, 300))
    # a -0.0 knot on the output grid, where scipy's sum turns it into +0.0
    @example(segment=np.array([2.0, -0.0, -0.0, -2.0]), target_len=4)
    def test_equals_scipy_cubic_spline(self, cubic_spline, segment, target_len):
        m = segment.shape[0]
        expected = cubic_spline(np.arange(m), segment)(np.linspace(0, m - 1, target_len))
        out = spline_resample(segment, target_len)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))

    def test_cli_sweep_loads_only_numpy_and_the_stdlib(self, tmp_path):
        # scipy is this class's oracle, not a dependency: a fresh interpreter that
        # imports fcnaug.cli and runs a sweep loads numpy, fcnaug and the stdlib only.
        for name, seed in (("toy_TRAIN.tsv", 0), ("toy_TEST.tsv", 1)):
            (tmp_path / name).write_text(serialize_ucr(make_synthetic(4, 24, seed)))
        src = str(Path(fcnaug.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["sweep", "--train", tmp_path / "toy_TRAIN.tsv", "--test", tmp_path / "toy_TEST.tsv",
                "--alphas", "0.5,1.0", "--epochs", 1, "--out", tmp_path / "runs"]
        result = subprocess.run([sys.executable, "-c", ONLY_NUMPY_AND_STDLIB, *map(str, argv)],
                                env=env, capture_output=True, text=True, timeout=120, check=True)
        assert result.stdout.splitlines()[-1] == "[]"


# Runs fcnaug.cli.main on its arguments and prints the top-level modules it
# loaded beyond numpy, fcnaug and the stdlib.  Cython's runtime modules, which
# numpy's extensions register without an import spec, are not imports.
ONLY_NUMPY_AND_STDLIB = """
import sys
before = set(sys.modules)
import fcnaug.cli
assert fcnaug.cli.main(sys.argv[1:]) == 0
loaded = {name.partition(".")[0] for name, module in sys.modules.items()
          if name not in before and getattr(module, "__spec__", None) is not None}
print(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "fcnaug"}))
"""


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSplinePlan:
    # Few distinct lengths, so that calls share m with another target length,
    # share the target length with another m, and repeat earlier pairs.
    @settings(max_examples=200, deadline=None)
    @given(calls=st.lists(st.tuples(spline_segments(), st.sampled_from([2, 3, 7, 24, 96])),
                          min_size=1, max_size=8),
           lengths=st.lists(st.tuples(st.sampled_from([4, 5, 11]),
                                      st.sampled_from([2, 5, 11, 96])), max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_uncached_reference(self, calls, lengths, seed):
        gen = np.random.default_rng(seed)
        calls = calls + [(gen.standard_normal(m), t) for m, t in lengths]
        order = gen.permutation(len(calls))
        for k in order:
            segment, target_len = calls[k]
            out = spline_resample(segment, target_len)
            assert same_bits(out, reference_spline_resample(segment, target_len)), \
                (segment.shape[0], target_len)

    def test_plan_is_read_only(self):
        plan = _spline_plan(9, 20)
        assert plan is _spline_plan(9, 20)
        arrays = [part for part in plan if isinstance(part, np.ndarray)]
        assert len(arrays) == 4
        for part in plan:
            assert isinstance(part, (tuple, np.ndarray))
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


class TestAugmentSample:
    @pytest.fixture
    def sample(self):
        gen = np.random.default_rng(9)
        values = gen.standard_normal(96)
        values = (values - values.mean()) / values.std()
        return values

    def test_pair_shape_normalization(self, sample):
        a, b = augment_sample(sample, 0.7, RngStream(3))
        for out in (a, b):
            assert out.values.shape == (96,)
            assert abs(out.values.mean()) < 1e-9
            assert abs(out.values.std() - 1.0) < 1e-9
            assert not out.degenerate

    def test_deterministic_pair(self, sample):
        first = augment_sample(sample, 0.7, RngStream(21, "aug"))
        second = augment_sample(sample, 0.7, RngStream(21, "aug"))
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x.values, y.values)

    def test_passes_independent(self, sample):
        # across many seeds the two windows must differ at least sometimes
        differs = 0
        for seed in range(20):
            a, b = augment_sample(sample, 0.7, RngStream(seed))
            if not np.array_equal(a.values, b.values):
                differs += 1
        assert differs > 0

    def test_flat_sample_degenerate(self):
        a, b = augment_sample(np.full(96, 2.5), 0.7, RngStream(1))
        for out in (a, b):
            assert out.degenerate
            np.testing.assert_array_equal(out.values, np.zeros(96))

    def test_window_too_short_propagates(self):
        # floor(0.5 * 4) = 2 passes slicing but is below the 4-knot spline minimum
        with pytest.raises(InterpolationError):
            augment_sample(np.arange(4.0), 0.5, RngStream(0))
        with pytest.raises(ParameterError):
            augment_sample(np.arange(10.0), 0.1, RngStream(0))


class TestCoverageProperty:
    def test_all_starts_reachable_small_case(self):
        # n=10, s=7: 4 valid positions, all reachable, nothing else
        series = np.arange(10.0)
        counts = np.zeros(10, dtype=int)
        for i in range(2000):
            counts[slice_window(series, 0.7, RngStream(17).child(i)).start] += 1
        assert (counts[:4] > 0).all()
        assert (counts[4:] == 0).all()
