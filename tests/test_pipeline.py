from dataclasses import asdict

import numpy as np
import pytest

from fcnaug.data_io import split_test
from fcnaug.errors import DataFormatError, ParameterError
from fcnaug.nn_engine import FcnConfig, init_params, softmax
from fcnaug.pipeline import (
    DataSplits,
    RowSpec,
    SelectionResult,
    check_run,
    confidence_alpha,
    predict_alphas,
    run_baseline_detailed,
    run_experiment_pair,
    run_row,
    run_selective_detailed,
    select_low_confidence,
    sweep,
)
from fcnaug.rng import RngStream, derive_seed
from fcnaug.training import TrainConfig

from helpers import bits_equal, make_synthetic


@pytest.fixture(scope="module")
def splits():
    train = make_synthetic(n_per_class=10, length=24, seed=0)  # 20 samples
    test = make_synthetic(n_per_class=6, length=24, seed=1)  # 12 samples
    test_a, test_b = split_test(test)
    return DataSplits(train, test_a, test_b)


FAST = TrainConfig(epochs=3, batch_size=8, seed=42)


class TestConfidenceAlpha:
    def test_paper_example_moderate(self):
        dist = softmax(np.log([0.46590492, 0.5340951]))
        assert confidence_alpha(dist) == pytest.approx(0.0682, abs=1e-4)

    def test_paper_example_low(self):
        dist = softmax(np.log([0.48288137, 0.5171186]))
        assert confidence_alpha(dist) == pytest.approx(0.03424, abs=1e-5)

    def test_maximal_uncertainty(self):
        assert confidence_alpha(softmax([0.3, 0.3])) == 0.0

    def test_rejects_other_class_counts(self):
        with pytest.raises(ParameterError):
            confidence_alpha(softmax([0.1, 0.2, 0.3]))


@pytest.fixture(scope="module")
def model_params():
    return init_params(FcnConfig(series_len=24), RngStream(3, "sel"))


class TestSelection:
    def test_threshold_zero_selects_nothing(self, model_params, splits):
        result = select_low_confidence(model_params, splits.test_a, 0.0)
        assert result.indices == ()

    def test_threshold_one_selects_all_non_saturated(self, model_params, splits):
        alphas = predict_alphas(model_params, splits.test_a)
        result = select_low_confidence(model_params, splits.test_a, 1.0)
        assert result.indices == tuple(np.flatnonzero(alphas < 1.0))

    def test_monotone_in_threshold(self, model_params, splits):
        previous = set()
        counts = []
        for t in (0.05, 0.2, 0.5, 0.9, 1.0):
            selected = set(select_low_confidence(model_params, splits.test_a, t).indices)
            assert previous <= selected
            previous = selected
            counts.append(len(selected))
        assert counts == sorted(counts)

    def test_alphas_strictly_below_and_complement_above(self, model_params, splits):
        threshold = 0.5
        result = select_low_confidence(model_params, splits.test_a, threshold)
        recomputed = predict_alphas(model_params, splits.test_a)
        for idx, alpha in zip(result.indices, result.alphas):
            assert alpha < threshold
            assert alpha == recomputed[idx]
        unselected = set(range(len(splits.test_a))) - set(result.indices)
        assert all(recomputed[i] >= threshold for i in unselected)

    def test_indices_strictly_increasing(self, model_params, splits):
        result = select_low_confidence(model_params, splits.test_a, 1.0)
        assert list(result.indices) == sorted(set(result.indices))

    def test_threshold_out_of_range(self, model_params, splits):
        with pytest.raises(ParameterError):
            select_low_confidence(model_params, splits.test_a, 1.5)

    def test_selection_result_validation(self):
        with pytest.raises(ParameterError):
            SelectionResult((2, 1), (0.1, 0.2), 0.5)
        with pytest.raises(ParameterError):
            SelectionResult((0,), (0.6,), 0.5)


class TestBaseline:
    def test_report_shape(self, splits):
        report = run_baseline_detailed(
            FAST, splits.train, splits.test_b, splits.test_a
        ).report
        assert report.mode == "baseline"
        assert report.alpha_threshold is None
        assert report.selected_count == report.augmented_count == 0
        assert report.train_size_final == len(splits.train)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.seed == FAST.seed
        assert report.config["epochs"] == FAST.epochs

    def test_config_snapshot(self, splits):
        report = run_baseline_detailed(FAST, splits.train, splits.test_b, splits.test_a).report
        assert report.config["window_fraction"] is None
        assert report.config["val_mode"] == "testa"

    def test_deterministic(self, splits):
        a = run_baseline_detailed(FAST, splits.train, splits.test_b, splits.test_a).report
        b = run_baseline_detailed(FAST, splits.train, splits.test_b, splits.test_a).report
        assert asdict(a) == asdict(b)

    def test_artifacts(self, splits):
        artifacts = run_baseline_detailed(FAST, splits.train, splits.test_b, splits.test_a)
        assert artifacts.model is artifacts.initial_model
        assert artifacts.selection is None and artifacts.augmented == []
        assert artifacts.expanded_train is splits.train


class TestSelective:
    def test_counts_and_arithmetic(self, splits):
        artifacts = run_selective_detailed(
            FAST, splits.train, splits.test_a, splits.test_b, threshold=1.0, fraction=0.7
        )
        r = artifacts.report
        k = r.selected_count
        assert k == len(artifacts.selection.indices)
        assert r.augmented_count == 2 * k
        assert r.train_size_final == len(splits.train) + 2 * k
        assert len(artifacts.expanded_train) == r.train_size_final

    def test_augmented_samples_normalized_and_labeled(self, splits):
        artifacts = run_selective_detailed(
            FAST, splits.train, splits.test_a, splits.test_b, threshold=1.0
        )
        assert artifacts.augmented, "threshold 1.0 should select something here"
        for sample in artifacts.augmented:
            assert abs(sample.values.mean()) < 1e-9
            assert abs(sample.values.std() - 1.0) < 1e-9
        n = len(splits.train)
        source_labels = splits.test_a.labels[list(artifacts.selection.indices)]
        assert np.array_equal(artifacts.expanded_train.labels[n:], np.repeat(source_labels, 2))

    def test_augmented_appended_after_originals(self, splits):
        artifacts = run_selective_detailed(
            FAST, splits.train, splits.test_a, splits.test_b, threshold=1.0
        )
        n = len(splits.train)
        expanded = artifacts.expanded_train
        assert bits_equal(expanded.values[:n], splits.train.values)
        assert np.array_equal(expanded.labels[:n], splits.train.labels)
        assert bits_equal(expanded.values[n:], np.array([a.values for a in artifacts.augmented]))

    def test_threshold_zero_degenerates_to_retrained_baseline(self, splits):
        report = run_selective_detailed(
            FAST, splits.train, splits.test_a, splits.test_b, 0.0
        ).report
        assert report.selected_count == 0
        assert report.augmented_count == 0
        assert report.train_size_final == len(splits.train)

    def test_threshold_out_of_range(self, splits, no_training):
        with pytest.raises(ParameterError, match="alpha"):
            run_selective_detailed(
                FAST, splits.train, splits.test_a, splits.test_b, -0.1
            ).report

    def test_fraction_out_of_range(self, splits, no_training):
        with pytest.raises(ParameterError, match="window fraction"):
            run_selective_detailed(
                FAST, splits.train, splits.test_a, splits.test_b, 0.5, fraction=1.5
            )

    def test_full_determinism(self, splits):
        a = run_selective_detailed(
            FAST, splits.train, splits.test_a, splits.test_b, 0.8
        ).report
        b = run_selective_detailed(
            FAST, splits.train, splits.test_a, splits.test_b, 0.8
        ).report
        assert asdict(a) == asdict(b)

    def test_initial_model_shared_with_baseline(self, splits):
        baseline = run_baseline_detailed(FAST, splits.train, splits.test_b, splits.test_a)
        artifacts = run_selective_detailed(
            FAST, splits.train, splits.test_a, splits.test_b, threshold=0.5
        )
        for (_, ta), (_, tb) in zip(
            baseline.model.params.all_tensors(),
            artifacts.initial_model.params.all_tensors(),
        ):
            np.testing.assert_array_equal(ta, tb)


class TestNoTrainingGuard:
    """The ``no_training`` fixture patches ``pipeline.train``; the "checked before
    training" tests prove something only if every row trains through that name."""

    @pytest.mark.parametrize("threshold", [None, 0.5], ids=["baseline", "selective"])
    def test_run_row_trains_through_pipeline_train(self, splits, no_training, threshold):
        train_used, val_set = check_run(splits, [], 0.7, "testa")
        with pytest.raises(AssertionError, match="training started"):
            run_row(RowSpec(FAST, threshold, 0.7, "testa"),
                    train_used, val_set, splits.test_a, splits.test_b)

    def test_baseline_wrapper_trains_through_pipeline_train(self, splits, no_training):
        with pytest.raises(AssertionError, match="training started"):
            run_baseline_detailed(FAST, splits.train, splits.test_b, splits.test_a)


class TestExperimentPair:
    def test_matches_independent_runs(self, splits):
        pair_base, pair_sel = run_experiment_pair(FAST, splits, threshold=0.9)
        solo_base = run_baseline_detailed(
            FAST, splits.train, splits.test_b, splits.test_a
        ).report
        solo_sel = run_selective_detailed(
            FAST, splits.train, splits.test_a, splits.test_b, 0.9
        ).report
        assert asdict(pair_base) == asdict(solo_base)
        assert asdict(pair_sel) == asdict(solo_sel)

    def test_config_snapshots(self, splits):
        base, sel = run_experiment_pair(FAST, splits, 0.9, 0.8, "holdout:0.25")
        assert base.config["window_fraction"] is None
        assert sel.config["window_fraction"] == 0.8
        assert base.config["val_mode"] == sel.config["val_mode"] == "holdout:0.25"


class TestSweep:
    def test_row_layout_and_seeds(self, splits):
        reports = sweep(FAST, splits, [0.3, 0.9])
        assert len(reports) == 3
        assert reports[0].mode == "baseline"
        assert [r.alpha_threshold for r in reports[1:]] == [0.3, 0.9]
        assert reports[0].seed == derive_seed(FAST.seed, "baseline")
        assert reports[1].seed == derive_seed(FAST.seed, "threshold", 0)
        assert reports[2].seed == derive_seed(FAST.seed, "threshold", 1)
        assert len({r.seed for r in reports}) == 3

    def test_empty_thresholds_rejected(self, splits):
        with pytest.raises(ParameterError):
            sweep(FAST, splits, [])

    def test_bad_threshold_rejected(self, splits, no_training):
        with pytest.raises(ParameterError, match="alpha"):
            sweep(FAST, splits, [0.5, 1.2])

    def test_bad_fraction_rejected(self, splits, no_training):
        with pytest.raises(ParameterError, match="window fraction"):
            sweep(FAST, splits, [0.5], fraction=1.5)

    def test_config_snapshots(self, splits):
        reports = sweep(FAST, splits, [0.4], 0.8, "holdout:0.25")
        assert [r.config["window_fraction"] for r in reports] == [None, 0.8]
        assert [r.config["val_mode"] for r in reports] == ["holdout:0.25"] * 2

    def test_deterministic(self, splits):
        a = sweep(FAST, splits, [0.6])
        b = sweep(FAST, splits, [0.6])
        assert [asdict(r) for r in a] == [asdict(r) for r in b]


class TestCheckRun:
    @pytest.mark.parametrize("thresholds, fraction, val_mode, message", [
        ([0.5, 1.2], 0.7, "testa", "alpha"),
        ([], 0.0, "testa", "window fraction"),
        ([], 0.1, "testa", "2-point window"),  # floor(0.1 * 24) = 2 < 4 spline knots
    ])
    def test_rejects(self, splits, thresholds, fraction, val_mode, message):
        with pytest.raises(ParameterError, match=message):
            check_run(splits, thresholds, fraction, val_mode)

    def test_splits_reject_unequal_lengths(self, splits):
        short_a, short_b = split_test(make_synthetic(n_per_class=2, length=16, seed=1))
        with pytest.raises(DataFormatError, match="16.*24"):
            DataSplits(splits.train, short_a, short_b)

    def test_testa_mode(self, splits):
        train_used, val = check_run(splits, [0.5], 0.7, "testa")
        assert train_used is splits.train
        assert val is splits.test_a

    def test_holdout_mode(self, splits):
        train_used, val = check_run(splits, [0.5], 0.7, "holdout:0.25")
        k = int(0.25 * len(splits.train))
        assert len(val) == k
        assert len(train_used) == len(splits.train) - k
        assert bits_equal(np.concatenate([train_used.values, val.values]), splits.train.values)
        assert np.array_equal(np.concatenate([train_used.labels, val.labels]),
                              splits.train.labels)

    @pytest.mark.parametrize("mode", ["holdout:0", "holdout:1", "holdout:x", "bogus"])
    def test_bad_modes(self, splits, mode):
        with pytest.raises(ParameterError):
            check_run(splits, [], 0.7, mode)

    def test_holdout_run_accounts_sizes(self, splits):
        artifacts = run_selective_detailed(
            FAST, splits.train, splits.test_a, splits.test_b,
            threshold=1.0, val_mode="holdout:0.2",
        )
        reduced = len(splits.train) - int(0.2 * len(splits.train))
        r = artifacts.report
        assert r.train_size_final == reduced + r.augmented_count
