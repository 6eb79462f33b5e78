"""The benchmark's traced run must still see every function it times.

perfbench wraps public fcnaug functions from outside by name.  A refactor
that renames or removes one of them leaves the benchmark silently blind to
it, so this test installs perfbench's own probe list on the package and runs
a short selective experiment through the CLI.
"""

import sys
from pathlib import Path

import pytest

import fcnaug.cli
from fcnaug.data_io import serialize_ucr

from helpers import make_synthetic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_every_probe_resolves_and_observes(bench, tmp_path, capsys):
    tracer_cls, probes = bench
    train, test = tmp_path / "toy_TRAIN.tsv", tmp_path / "toy_TEST.tsv"
    train.write_text(serialize_ucr(make_synthetic(n_per_class=8, length=24, seed=0)))
    test.write_text(serialize_ucr(make_synthetic(n_per_class=5, length=24, seed=1)))

    tracer = tracer_cls("fcnaug")
    tracer.install(probes)
    try:
        code = fcnaug.cli.main([
            "selective", "--train", str(train), "--test", str(test), "--alpha", "0.9",
            "--epochs", "2", "--seed", "3", "--out", str(tmp_path / "out"),
        ])
    finally:
        tracer.uninstall()

    assert code == 0, capsys.readouterr().err
    assert tracer.absent == []
    assert tracer.broken == set()
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
