import sys
import types

import pytest

from spans import Probe, Tracer, self_times
from workloads import epoch_ms, pass_ms_per_sample


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("c1", 1.0, 5.0, 0), ("c2", 3.0, 7.0, 0),
             ("c3", 9.0, 12.0, 0)]
    # Children cover [1, 7] and [9, 10] of the parent: 7 of its 10 seconds.
    assert self_times(spans)[0] == pytest.approx(3.0)


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def outer(x):
        return core.inner(x) * 2

    class Thing:
        def method(self):
            return "ok"

    core.inner, core.outer, core.Thing = inner, outer, Thing
    user.outer = outer  # a second binding, as ``from .core import outer`` makes
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user


def test_tracer_wraps_every_binding_and_records_parents(fake_package):
    core, user = fake_package
    original = core.outer
    seen = []
    tracer = Tracer("fakepkg")
    tracer.install([
        Probe("core:outer", "core.outer", lambda t, a, k, r: seen.append(r)),
        Probe("core:inner", "core.inner"),
        Probe("core:Thing.method", "core.method"),
    ])
    with tracer.span("bench.root"):
        assert user.outer(1) == 4
        assert core.Thing().method() == "ok"
    tracer.uninstall()
    spans, _ = tracer.take()
    assert [s[0] for s in spans] == ["bench.root", "core.outer", "core.inner", "core.method"]
    assert [s[3] for s in spans] == [-1, 0, 1, 0]
    assert seen == [4]
    assert core.outer is original and user.outer is original
    assert tracer.take() == ([], {})


def test_missing_targets_are_reported_absent_not_raised(fake_package):
    core, _ = fake_package
    tracer = Tracer("fakepkg")
    probes = [Probe("core:renamed", "x"), Probe("gone:f", "y"), Probe("core:Thing.gone", "z")]
    tracer.install(probes)
    tracer.uninstall()
    tracer.install(probes + [Probe("core:inner", "core.inner", lambda t, a, k, r: r.missing)])
    assert tracer.absent == ["core:renamed", "gone:f", "core:Thing.gone"]
    assert core.inner(1) == 2
    assert tracer.broken == {"core:inner"}
    tracer.uninstall()


def test_epoch_durations_run_from_training_start_to_each_validation_end():
    spans = [
        ("bench.iteration", 0.0, 1.0, -1),
        ("training.train", 0.1, 0.5, 0),
        ("training.evaluate", 0.15, 0.2, 1),
        ("training.evaluate", 0.3, 0.45, 1),
        ("training.evaluate", 0.6, 0.7, 0),  # a test-set evaluation, not an epoch
    ]
    assert epoch_ms(spans) == pytest.approx([100.0, 250.0])


def test_training_pass_per_sample_leaves_validation_out_and_divides_by_set_size():
    spans = [
        ("bench.iteration", 0.0, 2.0, -1),
        ("training.train", 0.1, 0.5, 0),
        ("training.evaluate", 0.3, 0.35, 1),
        ("training.train", 1.0, 1.6, 0),
        ("training.evaluate", 1.4, 1.5, 3),
    ]
    assert pass_ms_per_sample(spans, [100, 200]) == pytest.approx([2.0, 2.0])
