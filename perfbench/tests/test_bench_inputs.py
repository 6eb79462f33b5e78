import numpy as np

from inputs import make_probe_rows, ucr_text


def _sources():
    gen = np.random.default_rng(0)
    return np.array([-1, 1, 1, -1, 1]), gen.standard_normal((5, 96))


def test_probe_generator_is_a_function_of_its_seed():
    labels, values = _sources()
    a = make_probe_rows(labels, values, 64, seed=11)
    b = make_probe_rows(labels, values, 64, seed=11)
    c = make_probe_rows(labels, values, 64, seed=12)
    assert ucr_text(*a) == ucr_text(*b)
    assert not np.array_equal(a[1], c[1])


def test_probe_rows_are_labelled_z_normalized_series():
    labels, values = _sources()
    out_labels, rows = make_probe_rows(labels, values, 200, seed=5)
    assert rows.shape == (200, 96)
    assert set(out_labels) <= {-1, 1}
    np.testing.assert_allclose(rows.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(rows.std(axis=1), 1.0, atol=1e-12)
    lines = ucr_text(out_labels, rows).splitlines()
    assert len(lines) == 200 and len(lines[0].split("\t")) == 97
