import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fcnaug import pipeline
from fcnaug.data_io import load_ucr_file, remap_labels, split_test

REPO_ROOT = Path(__file__).resolve().parents[1]
ECG200_DIR = REPO_ROOT / "data" / "ECG200"


def ecg200_file(name: str) -> Path:
    path = ECG200_DIR / name
    if not path.is_file():
        pytest.fail(
            f"ECG200 data file missing: {path}. Place the UCR archive files "
            "ECG200_TRAIN.tsv / ECG200_TEST.tsv under data/ECG200/."
        )
    return path


@pytest.fixture(scope="session")
def ecg200_paths():
    return ecg200_file("ECG200_TRAIN.tsv"), ecg200_file("ECG200_TEST.tsv")


@pytest.fixture(scope="session")
def ecg200(ecg200_paths):
    """(train, test_a, test_b), preprocessed."""
    train_path, test_path = ecg200_paths
    train = remap_labels(load_ucr_file(train_path))
    test = remap_labels(load_ucr_file(test_path))
    test_a, test_b = split_test(test)
    return train, test_a, test_b


@pytest.fixture
def no_training(monkeypatch):
    """Make any training in the pipeline fail loudly."""

    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(pipeline, "train", refuse)
