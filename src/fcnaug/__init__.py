"""Selective window-slice augmentation for FCN time-series classification."""

__version__ = "0.1.0"

from .data_io import Dataset, load_ucr_file, parse_ucr, remap_labels
from .pipeline import DataSplits, run_baseline_detailed, run_selective_detailed, sweep
from .training import TrainConfig, evaluate, load_checkpoint, save_checkpoint, train

__all__ = [
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
