"""Seeded inputs for the benchmark workloads.

The probe file for ``score_augment`` is derived from the ECG200 series: each
probe row takes one source heartbeat, shifts it circularly, rescales it, adds
noise and z-normalizes it, and keeps the source label.  Only numpy is used, so
the inputs do not depend on the code under test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

MAX_SHIFT = 8
NOISE_STD = 0.1


def read_ucr_rows(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Raw labels and values of a tab-separated UCR file."""
    table = np.loadtxt(path, delimiter="\t", ndmin=2)
    return table[:, 0].astype(np.int64), table[:, 1:]


def make_probe_rows(
    labels: np.ndarray, values: np.ndarray, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` perturbed copies of randomly drawn source rows."""
    gen = np.random.default_rng([seed, 0x9E0BE])
    src = gen.integers(0, values.shape[0], size=count)
    shifts = gen.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=count)
    scales = gen.uniform(0.8, 1.2, size=count)
    noise = gen.normal(0.0, NOISE_STD, size=(count, values.shape[1]))
    rows = np.stack([np.roll(values[s], k) for s, k in zip(src, shifts)])
    rows = rows * scales[:, None] + noise
    rows = (rows - rows.mean(axis=1, keepdims=True)) / rows.std(axis=1, keepdims=True)
    return labels[src], rows


def ucr_text(labels: np.ndarray, rows: np.ndarray) -> str:
    """UCR text with 8 significant digits, like the archive files."""
    return "".join(
        f"{int(lab)}\t" + "\t".join(f"{v:.8g}" for v in row) + "\n"
        for lab, row in zip(labels, rows)
    )
