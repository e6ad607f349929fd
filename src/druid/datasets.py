"""Sparse text-format dataset ingestion and partitioning across agents.

The accepted grammar is one sample per line, ``<label> <idx>:<val> ...``
with 1-based strictly increasing indices per line and finite labels and
values; blank lines are skipped and ``#`` starts a comment running to the
end of the line.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParseError


@dataclass
class Dataset:
    """Parsed samples: (label, sparse index->value map) rows.

    ``d`` is the largest feature index seen (0 for an empty dataset).
    """

    rows: list
    d: int

    def __len__(self) -> int:
        return len(self.rows)


def parse_libsvm(source) -> Dataset:
    """Parse sparse text rows from a string or text stream."""
    if isinstance(source, str):
        source = io.StringIO(source)
    rows = []
    d = 0
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad label {tokens[0]!r}", lineno) from None
        if not math.isfinite(label):
            raise ParseError(f"non-finite label {tokens[0]!r}", lineno)
        features = {}
        prev_idx = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", lineno) from None
            if not math.isfinite(val):
                raise ParseError(f"non-finite feature value {tok!r}", lineno)
            if idx < 1:
                raise ParseError(f"feature index {idx} below 1", lineno)
            if idx <= prev_idx:
                raise ParseError(f"feature index {idx} not increasing", lineno)
            prev_idx = idx
            features[idx] = val
        d = max(d, prev_idx)
        rows.append((label, features))
    return Dataset(rows=rows, d=d)


def write_libsvm(ds: Dataset, stream) -> None:
    """Serialize back to the sparse text format (full float precision)."""
    for label, features in ds.rows:
        parts = [repr(label)]
        parts += [f"{idx}:{features[idx]!r}" for idx in sorted(features)]
        stream.write(" ".join(parts) + "\n")


def dense_features(ds: Dataset, rows=None):
    """Dense (X, y) arrays for the given row indices (all by default)."""
    if ds.d < 1:
        raise ConfigurationError("dataset is empty, feature dimension undefined")
    if rows is None:
        rows = range(len(ds.rows))
    X = np.zeros((len(rows), ds.d))
    y = np.zeros(len(rows))
    for r, ridx in enumerate(rows):
        label, features = ds.rows[ridx]
        y[r] = label
        for idx, val in features.items():
            X[r, idx - 1] = val
    return X, y


def binarize_labels(y: np.ndarray) -> np.ndarray:
    """Map two-valued labels to {0, 1} by thresholding at their midpoint."""
    values = np.unique(y)
    if len(values) > 2:
        raise ConfigurationError(
            f"logistic problems need two label values, found {len(values)}"
        )
    if len(values) == 1:
        return np.zeros_like(y)
    mid = 0.5 * (values[0] + values[1])
    return (y > mid).astype(float)


def partition(ds: Dataset, m: int, seed: int):
    """Even split of the row indices across m agents.

    Rows are shuffled with the given seed and split contiguously; the
    first len(ds) mod m agents receive one extra row.
    """
    if len(ds.rows) < m:
        raise ConfigurationError(f"{len(ds.rows)} rows cannot cover {m} agents")
    order = np.random.default_rng(seed).permutation(len(ds.rows))
    base, extra = divmod(len(ds.rows), m)
    parts = []
    start = 0
    for i in range(m):
        size = base + (1 if i < extra else 0)
        parts.append(np.sort(order[start:start + size]))
        start += size
    return parts
