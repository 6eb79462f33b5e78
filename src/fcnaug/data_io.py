"""UCR-format dataset parsing, preprocessing, and the probe/eval test split.

The on-disk format is one sample per line: an integer class label followed
by the series values, separated by tabs, commas, or runs of spaces.  Labels
-1/1 (the raw ECG200 convention) are remapped to 0/1 by
:func:`remap_labels` before anything downstream sees them; 0/1 is the only
other accepted convention.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DataFormatError,
    DataParseError,
    NumericError,
    SplitError,
    UnsupportedLabelError,
)

_FIELD_SEP = re.compile(r"[,\s]+")

# Population std below this is treated as a flat (degenerate) series.
DEGENERATE_STD = 1e-8


@dataclass(frozen=True, eq=False)
class TimeSeriesSample:
    """One labeled univariate series.

    ``degenerate`` marks samples produced by z-normalizing a flat series
    (they are all-zero by convention rather than an error).
    """

    values: np.ndarray
    label: int
    degenerate: bool = False

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)  # own copy: samples are immutable
        if values.ndim != 1 or values.size == 0:
            raise DataFormatError("sample values must be a non-empty 1-D sequence")
        if not np.isfinite(values).all():
            raise DataParseError("sample contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "label", int(self.label))


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of equal-length samples.

    Sample order is preserved exactly as read from file; the probe/eval
    split depends on it.
    """

    samples: tuple[TimeSeriesSample, ...] = field(default_factory=tuple)
    series_len: int = 0
    class_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise DataFormatError("dataset must contain at least one sample")
        if self.series_len <= 0 or self.class_count <= 0:
            raise DataFormatError("series_len and class_count must be positive")
        for i, s in enumerate(self.samples):
            if s.values.shape[0] != self.series_len:
                raise DataFormatError(
                    f"sample {i + 1} has length {s.values.shape[0]}, "
                    f"expected {self.series_len}"
                )
            if s.label >= self.class_count:
                raise DataFormatError(
                    f"sample {i + 1} has label {s.label} >= class_count {self.class_count}"
                )

    @classmethod
    def from_samples(
        cls, samples, class_count: int | None = None
    ) -> "Dataset":
        """Build a dataset, deriving metadata from the samples.

        ``class_count`` defaults to max(label)+1, and to at least 2, so raw
        -1/1 labels fit and :func:`remap_labels` can name any other label.
        """
        samples = tuple(samples)
        if not samples:
            raise DataFormatError("dataset must contain at least one sample")
        if class_count is None:
            class_count = max(max(s.label for s in samples) + 1, 2)
        return cls(samples, samples[0].values.shape[0], class_count)

    def __len__(self) -> int:
        return len(self.samples)

    def values_matrix(self) -> np.ndarray:
        """All series stacked into an (n_samples, series_len) float64 array."""
        return np.stack([s.values for s in self.samples])

    def labels_array(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def subset(self, indices) -> "Dataset":
        """Samples at the given positions, keeping this dataset's class_count."""
        picked = tuple(self.samples[i] for i in indices)
        return Dataset(picked, self.series_len, self.class_count)


def parse_ucr(text: str) -> Dataset:
    """Parse UCR-style text: label first, then the series values.

    Raw labels are kept as parsed (-1 is accepted and remapped later by
    :func:`remap_labels`).  Ragged lines, non-numeric fields, and empty
    input raise with the offending line named.
    """
    series_len = None
    samples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = _FIELD_SEP.split(line)
        if len(fields) < 2:
            raise DataFormatError(f"line {lineno}: expected a label and at least one value")
        try:
            numbers = np.array([float(f) for f in fields], dtype=np.float64)
        except ValueError as exc:
            raise DataParseError(f"line {lineno}: non-numeric field ({exc})") from None
        if not np.isfinite(numbers).all():
            raise DataParseError(f"line {lineno}: non-finite value")
        label_f = numbers[0]
        if label_f != int(label_f):
            raise DataParseError(f"line {lineno}: label {fields[0]!r} is not an integer")
        values = numbers[1:]
        if series_len is None:
            series_len = values.shape[0]
        elif values.shape[0] != series_len:
            raise DataFormatError(
                f"line {lineno}: {values.shape[0]} values, expected {series_len}"
            )
        samples.append(TimeSeriesSample(values, int(label_f)))
    if not samples:
        raise DataFormatError("empty input: no data lines found")
    return Dataset.from_samples(samples)


def serialize_ucr(dataset: Dataset) -> str:
    """Render a dataset back to UCR text (tab-separated, label first).

    Values are written with shortest-roundtrip float formatting, so
    parse(serialize(d)) reproduces d exactly.
    """
    lines = []
    for s in dataset.samples:
        lines.append("\t".join([str(s.label), *map(repr, s.values.tolist())]))
    return "\n".join(lines) + "\n"


def load_ucr_file(path: str | Path) -> Dataset:
    return parse_ucr(Path(path).read_text())


def remap_labels(dataset: Dataset) -> Dataset:
    """Map raw labels -1 -> 0 and 1 -> 1; idempotent on {0, 1} labels.

    A file uses one convention, -1/1 or 0/1.  Any other label, such as the
    2 of UCR's common 1/2 convention, raises :class:`UnsupportedLabelError`,
    and so do labels -1 and 0 together, which would fall into one class.
    """
    mapping = {-1: 0, 0: 0, 1: 1}
    remapped = []
    for i, s in enumerate(dataset.samples):
        if s.label not in mapping:
            raise UnsupportedLabelError(
                f"sample {i + 1} has unsupported label {s.label}; "
                "the accepted label conventions are -1/1 and 0/1"
            )
        remapped.append(TimeSeriesSample(s.values, mapping[s.label], s.degenerate))
    labels = {s.label for s in dataset.samples}
    if {-1, 0} <= labels:
        raise UnsupportedLabelError(
            f"labels {sorted(labels)} mix the -1/1 and 0/1 conventions; "
            "-1 and 0 would merge into one class"
        )
    return Dataset(tuple(remapped), dataset.series_len, 2)


def znormalize(values) -> tuple[np.ndarray, bool]:
    """Subtract the mean and divide by the population (divide-by-n) std.

    Returns (normalized, degenerate).  A flat series (population std below
    ``DEGENERATE_STD``) normalizes to all zeros with the flag set instead
    of raising, so a sliced window of a flat region cannot abort a run.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DataFormatError("cannot normalize an empty series")
    if not np.isfinite(values).all():
        raise NumericError("series contains non-finite values")
    # The reductions of ndarray.mean() and std(ddof=0), without their wrappers.
    n = values.size
    centered = values - np.add.reduce(values, axis=None) / n
    std = math.sqrt(np.add.reduce(centered * centered, axis=None) / n)
    if std < DEGENERATE_STD:
        return np.zeros_like(values), True
    centered /= std
    return centered, False


def split_test(test: Dataset) -> tuple[Dataset, Dataset]:
    """Split the original test set into the probe half and the eval half.

    The probe half (test_set_a) is the first half in file order; the eval
    half (test_set_b) is the second.  Both keep the parent class_count.
    """
    n = len(test)
    if n % 2 != 0:
        raise SplitError(f"test set has {n} samples; an even count is required")
    half = n // 2
    first = Dataset(test.samples[:half], test.series_len, test.class_count)
    second = Dataset(test.samples[half:], test.series_len, test.class_count)
    return first, second
