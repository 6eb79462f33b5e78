"""The benchmark's traced run must still see every function it times.

perfbench wraps public fcnaug functions from outside by name.  A refactor
that renames or removes one of them leaves the benchmark silently blind to
it, so these tests install perfbench's own probe list on the package and run
short experiments through the CLI.
"""

import sys
from pathlib import Path

import pytest

import fcnaug.cli
from fcnaug.data_io import serialize_ucr

from helpers import make_synthetic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EPOCHS = 2
THRESHOLDS = (0.4, 0.9)
T = len(THRESHOLDS)


@pytest.fixture(scope="module")
def bench():
    """perfbench's Tracer class and FULL_PROBES, imported read-only."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from spans import Tracer
        from workloads import FULL_PROBES
    finally:
        sys.path.remove(str(PERFBENCH))
    return Tracer, FULL_PROBES


def traced_run(bench, tmp_path, capsys, *argv):
    """Run one CLI command on toy data under perfbench's tracer; return the tracer."""
    tracer_cls, probes = bench
    train, test = tmp_path / "toy_TRAIN.tsv", tmp_path / "toy_TEST.tsv"
    train.write_text("".join(serialize_ucr(make_synthetic(n_per_class=8, length=24, seed=0))))
    test.write_text("".join(serialize_ucr(make_synthetic(n_per_class=5, length=24, seed=1))))

    tracer = tracer_cls("fcnaug")
    tracer.install(probes)
    try:
        code = fcnaug.cli.main([
            argv[0], "--train", str(train), "--test", str(test), *argv[1:],
            "--epochs", str(EPOCHS), "--seed", "3", "--out", str(tmp_path / "out"),
        ])
    finally:
        tracer.uninstall()

    assert code == 0, capsys.readouterr().err
    assert tracer.absent == []
    assert tracer.broken == set()
    return tracer


def test_every_probe_resolves_and_observes(bench, tmp_path, capsys):
    tracer = traced_run(bench, tmp_path, capsys, "selective", "--alpha", "0.9")
    names = {span[0] for span in tracer.spans}
    assert {"training.train", "pipeline.select_low_confidence",
            "augmentation.augment_sample", "augmentation.spline_resample",
            "data_io.znormalize", "rng.generator"} <= names

    # A fast path that skips the per-window functions would hide them from
    # perfbench: each augment_sample span holds two windows' spline and
    # z-normalization spans.
    augments = [i for i, span in enumerate(tracer.spans)
                if span[0] == "augmentation.augment_sample"]
    for i in augments:
        children = [span[0] for span in tracer.spans if span[3] == i]
        assert children.count("augmentation.spline_resample") == 2
        assert children.count("data_io.znormalize") == 2


# A baseline row trains once and evaluates once per epoch plus once for its
# report; a selective row trains twice.  A sweep is one baseline row plus one
# selective row per threshold.
@pytest.mark.parametrize("argv, trains, evaluates", [
    (["baseline"], 1, EPOCHS + 1),
    (["selective", "--alpha", "0.9"], 2, 2 * EPOCHS + 1),
    (["sweep", "--alphas", ",".join(map(str, THRESHOLDS))],
     1 + 2 * T, (1 + 2 * T) * EPOCHS + 1 + T),
])
def test_row_path_call_counts(bench, tmp_path, capsys, argv, trains, evaluates):
    tracer = traced_run(bench, tmp_path, capsys, *argv)
    names = [span[0] for span in tracer.spans]
    assert names.count("training.train") == trains
    assert names.count("training.evaluate") == evaluates
