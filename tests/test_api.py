"""The package's public names: ``fcnaug.__all__`` is pinned and each name imports."""

import pytest

import fcnaug

PUBLIC = [
    "Dataset",
    "load_ucr_file",
    "parse_ucr",
    "remap_labels",
    "DataSplits",
    "run_baseline_detailed",
    "run_selective_detailed",
    "sweep",
    "TrainConfig",
    "evaluate",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "__version__",
]


def test_all_is_pinned():
    assert fcnaug.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_imports(name):
    namespace = {}
    exec(f"from fcnaug import {name}", namespace)
    assert namespace[name] is getattr(fcnaug, name)
