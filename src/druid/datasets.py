"""Sparse text-format dataset ingestion and partitioning across agents.

The accepted grammar is one sample per line, ``<label> <idx>:<val> ...``
with 1-based strictly increasing indices per line and finite labels and
values; blank lines are skipped and ``#`` starts a comment running to the
end of the line.  Samples are parsed straight into dense arrays.
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParseError


@dataclass
class Dataset:
    """Parsed samples: ``labels`` (n,) and dense feature ``rows`` (n, d).

    ``d`` is the largest feature index seen (0 when no sample has a feature).
    """

    labels: np.ndarray
    rows: np.ndarray

    @property
    def d(self) -> int:
        return self.rows.shape[1]


def parse_libsvm(source) -> Dataset:
    """Parse sparse text rows from a string or text stream."""
    if isinstance(source, str):
        source = io.StringIO(source)
    # flat typed buffers: no Python object per feature outlives its line
    labels, counts, cols, values = array("d"), array("q"), array("q"), array("d")
    add_col, add_value = cols.append, values.append   # looked up once, not per token
    d = widest = 0   # largest feature index and the line that holds it
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
            try:
                add_col(idx - 1)
            except OverflowError:
                raise ParseError(f"feature index {idx} too large", lineno) from None
            add_value(val)
        if prev_idx > d:
            d, widest = prev_idx, lineno
        labels.append(label)
        counts.append(len(tokens) - 1)
    try:
        rows = np.zeros((len(labels), d))
    except (MemoryError, ValueError):  # ValueError: more bytes than an array can address
        raise ParseError(f"feature index {d} needs a dense {len(labels)} x {d} array, "
                         "too large to allocate", widest) from None
    rows[np.repeat(np.arange(len(labels)), counts), cols] = values
    return Dataset(labels=np.array(labels), rows=rows)


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
    first len(ds.rows) mod m agents receive one extra row.
    """
    if len(ds.rows) < m:
        raise ConfigurationError(f"{len(ds.rows)} rows cannot cover {m} agents")
    order = np.random.default_rng(seed).permutation(len(ds.rows))
    return [np.sort(part) for part in np.array_split(order, m)]
