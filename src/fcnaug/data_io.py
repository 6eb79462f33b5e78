"""UCR-format dataset parsing, preprocessing, and the probe/eval test split.

The on-disk format is one sample per line: an integer class label followed
by the series values, separated by tabs, commas, or runs of spaces.  A
:class:`Dataset` holds a file as two arrays, an (n, L) value matrix and n
labels, in file order; splits and subsets index them.  Labels -1/1 (the raw
ECG200 convention) are remapped to 0/1 by :func:`remap_labels` before
anything downstream sees them; 0/1 is the only other accepted convention.

Every file the package writes goes through :func:`write_atomic`, so an
interrupted run never leaves a half-written file; :func:`serialize_ucr`
yields the UCR text line by line, so a dataset is written without holding
its whole text in memory.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

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
class Dataset:
    """Equal-length labeled series: (n, L) float64 values and (n,) int64 labels.

    The dataset keeps read-only arrays that own their memory, so neither the
    caller nor a consumer can change it: an input that already is one, like
    another dataset's values, is shared, and any other input, a view
    included, is copied.  Row order is preserved exactly as read from
    file; the probe/eval split depends on it.
    """

    values: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        values = _frozen(self.values, np.float64)
        labels = _frozen(self.labels, np.int64)
        if values.ndim != 2 or values.size == 0:
            raise DataFormatError("dataset values must be a non-empty (samples, length) matrix")
        if labels.shape != values.shape[:1]:
            raise DataFormatError(f"{labels.size} labels for {values.shape[0]} samples")
        if not np.isfinite(values).all():
            raise DataParseError("dataset contains non-finite values")
        if self.class_count <= 0:
            raise DataFormatError("class_count must be positive")
        over = np.flatnonzero(labels >= self.class_count)
        if over.size:
            i = int(over[0])
            raise DataFormatError(
                f"sample {i + 1} has label {labels[i]} >= class_count {self.class_count}"
            )
        values.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def series_len(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]

    def subset(self, rows) -> "Dataset":
        """The rows at an index sequence or slice, keeping this dataset's class_count."""
        return Dataset(self.values[rows], self.labels[rows], self.class_count)


def _frozen(array, dtype) -> np.ndarray:
    """``array`` itself if it is a read-only ``dtype`` array that owns its memory,
    such as another dataset's; otherwise a new copy."""
    if (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.flags.owndata and not array.flags.writeable):
        return array
    return np.array(array, dtype=dtype)


def parse_ucr(text: str) -> Dataset:
    """Parse UCR-style text: label first, then the series values.

    Raw labels are kept as parsed (-1 is accepted and remapped later by
    :func:`remap_labels`), and ``class_count`` is max(label)+1, at least 2,
    so raw -1/1 labels fit and :func:`remap_labels` can name any other
    label.  Ragged lines, non-numeric fields, and empty input raise with the
    offending line named.
    """
    rows = []
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
        if abs(label_f) >= 2.0**63:
            raise DataParseError(f"line {lineno}: label {fields[0]!r} does not fit in 64 bits")
        if rows and numbers.size != rows[0].size:
            raise DataFormatError(
                f"line {lineno}: {numbers.size - 1} values, expected {rows[0].size - 1}"
            )
        rows.append(numbers)
    if not rows:
        raise DataFormatError("empty input: no data lines found")
    table = np.stack(rows)
    labels = table[:, 0].astype(np.int64)
    return Dataset(table[:, 1:], labels, max(int(labels.max()) + 1, 2))


def serialize_ucr(dataset: Dataset) -> Iterator[str]:
    """Yield a dataset as UCR text, one newline-terminated line per sample.

    Lines are tab-separated, label first.  Values are written with
    shortest-roundtrip float formatting, so
    ``parse_ucr("".join(serialize_ucr(d)))`` reproduces d exactly.
    """
    for label, row in zip(dataset.labels.tolist(), dataset.values):
        yield "\t".join([str(label), *map(repr, row.tolist())]) + "\n"


def write_atomic(path: str | Path, chunks: str | Iterable[str]) -> None:
    """Write a string, or the strings of an iterable in turn, to ``path`` as UTF-8.

    The text goes to a temporary file beside ``path``, which then replaces
    it in one ``os.replace``, so a reader sees the old file or the whole new
    one.  If anything raises, the temporary file is removed and an existing
    ``path`` is left as it was.  The new file gets the mode ``open`` gives,
    0o666 less the umask.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines((chunks,) if isinstance(chunks, str) else chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_ucr_file(path: str | Path) -> Dataset:
    """Parse a UCR file; text that is not UTF-8 raises :class:`DataParseError`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataParseError(f"not UTF-8 text ({exc})") from None
    return parse_ucr(text)


def remap_labels(dataset: Dataset) -> Dataset:
    """Map raw labels -1 -> 0 and 1 -> 1; idempotent on {0, 1} labels.

    A file uses one convention, -1/1 or 0/1.  Any other label, such as the
    2 of UCR's common 1/2 convention, raises :class:`UnsupportedLabelError`,
    and so do labels -1 and 0 together, which would fall into one class.
    The result shares the input's read-only values.
    """
    labels = dataset.labels
    unsupported = np.flatnonzero(np.abs(labels) > 1)
    if unsupported.size:
        i = int(unsupported[0])
        raise UnsupportedLabelError(
            f"sample {i + 1} has unsupported label {labels[i]}; "
            "the accepted label conventions are -1/1 and 0/1"
        )
    found = set(labels.tolist())
    if {-1, 0} <= found:
        raise UnsupportedLabelError(
            f"labels {sorted(found)} mix the -1/1 and 0/1 conventions; "
            "-1 and 0 would merge into one class"
        )
    return Dataset(dataset.values, np.maximum(labels, 0), 2)


class ZNormalized(NamedTuple):
    """A z-normalized series; ``degenerate`` marks a flat source, normalized to zeros."""

    values: np.ndarray
    degenerate: bool


def znormalize(values) -> ZNormalized:
    """Subtract the mean and divide by the population (divide-by-n) std.

    Returns ``ZNormalized(values, degenerate)``.  A flat series (population
    std below ``DEGENERATE_STD``) normalizes to all zeros with the flag set
    instead of raising, so a sliced window of a flat region cannot abort a run.
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
        return ZNormalized(np.zeros_like(values), True)
    centered /= std
    return ZNormalized(centered, False)


def split_test(test: Dataset) -> tuple[Dataset, Dataset]:
    """Split the original test set into the probe half and the eval half.

    The probe half (test_set_a) is the first half in file order; the eval
    half (test_set_b) is the second.  Both keep the parent class_count.
    """
    n = len(test)
    if n % 2 != 0:
        raise SplitError(f"test set has {n} samples; an even count is required")
    half = n // 2
    return test.subset(slice(half)), test.subset(slice(half, n))
