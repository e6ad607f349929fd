"""Sparse text-format dataset ingestion and partitioning across agents.

The accepted grammar is one sample per line, ``<label> <idx>:<val> ...``
with 1-based strictly increasing indices per line and finite labels and
values; blank lines are skipped and ``#`` starts a comment running to the
end of the line.  Samples are parsed straight into dense arrays.

``parse_libsvm`` reads about ``_BLOCK_BYTES`` characters of whole lines at
a time.  Numpy converts a block's tokens (it calls Python's ``int`` and
``float`` on each, so it accepts what the per-token loop accepts) and array
operations check the rules; the block's arrays are appended to flat typed
buffers, so one block's tokens are the parse's only transient Python
objects.  A block that numpy or a rule refuses is parsed again by the
per-token loop, which defines the grammar: it raises the ``ParseError`` of
the block's first bad line, or returns the values numpy could not hold (an
index of exactly 2**63, which the dense allocation then rejects).
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ParseError, rule, ruled

_BLOCK_BYTES = 1 << 16   # characters of whole lines read and converted at a time


@dataclass(eq=False)  # eq would compare the label and row arrays by truth value
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
    """Parse sparse text rows from a string or text stream.

    Whole lines are read about ``_BLOCK_BYTES`` characters at a time and each
    block is converted by numpy; a block that numpy or a rule refuses is
    parsed again token by token, which names its first bad line.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    # flat typed buffers: a block's arrays are appended to them and dropped
    buffers = array("d"), array("q"), array("q"), array("d")  # labels, counts, cols, values
    d = widest = 0   # largest feature index and the first line that reaches it
    first = 1        # line number of the block's first line
    while lines := source.readlines(_BLOCK_BYTES):
        block = _convert_block(lines, first) or _parse_lines(lines, first)
        for buf, part in zip(buffers, block[:4]):
            buf.frombytes(memoryview(part).cast("B"))
        if block.d > d:
            d, widest = block.d, block.widest
        first += len(lines)
    labels, counts, cols, values = buffers
    try:
        rows = np.zeros((len(labels), d))
    except (MemoryError, ValueError):  # ValueError: more bytes than an array can address
        raise ParseError(f"feature index {d} needs a dense {len(labels)} x {d} array, "
                         "too large to allocate", widest) from None
    rows[np.repeat(np.arange(len(labels)), counts), cols] = values
    return Dataset(labels=np.array(labels), rows=rows)


class _Block(NamedTuple):
    """The samples of a block of lines: ``labels`` and feature ``counts`` per
    sample, flat 0-based ``cols`` and ``values``, and the largest feature
    index ``d`` with the first line ``widest`` that reaches it (both 0 when
    the block has no feature)."""

    labels: np.ndarray | array
    counts: np.ndarray | array
    cols: np.ndarray | array
    values: np.ndarray | array
    d: int
    widest: int


def _convert_block(lines: list, first: int) -> _Block | None:
    """The block starting at line ``first``, its tokens converted by numpy;
    None when a token or a rule fails."""
    label_tokens, tokens, counts, at = [], [], [], []   # at: line offset of each sample
    for k, raw in enumerate(lines):
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if fields:
            label_tokens.append(fields[0])
            tokens += fields[1:]
            counts.append(len(fields) - 1)
            at.append(k)
    joined = " ".join(tokens)
    try:
        # the K tokens hold no whitespace, so the ":" and " " bytes alternate
        # ": :...:" exactly when each token holds one ":"
        text = np.frombuffer(joined.encode(), np.uint8)   # UnicodeEncodeError is a ValueError
        seps = text[(text == 58) | (text == 32)]
        if (len(seps) != max(2 * len(tokens) - 1, 0)
                or not ((seps[0::2] == 58).all() and (seps[1::2] == 32).all())):
            return None
        parts = joined.replace(":", " ").split(" ") if tokens else []
        idx = np.array(parts[0::2], dtype=np.int64)   # int() per token, as in the loop
        values = np.array(parts[1::2], dtype=float)
        labels = np.array(label_tokens, dtype=float)
    except (ValueError, OverflowError):   # OverflowError: an index beyond int64
        return None
    counts = np.array(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts   # flat position of each sample's first index
    rising = np.ones(len(idx), dtype=bool)
    rising[1:] = idx[1:] > idx[:-1]
    rising[starts[counts > 0]] = True
    if not (np.isfinite(labels).all() and np.isfinite(values).all()
            and (idx >= 1).all() and rising.all()):
        return None
    d = widest = 0
    filled = np.flatnonzero(counts)
    if len(filled):
        tops = idx[starts[filled] + counts[filled] - 1]   # a sample's largest index is its last
        top = int(tops.argmax())   # the first sample that reaches the maximum
        d, widest = int(tops[top]), first + at[filled[top]]
    return _Block(labels, counts, idx - 1, values, d, widest)


def _parse_lines(lines: list, first: int) -> _Block:
    """The block starting at line ``first``, parsed token by token: this loop
    defines the grammar's rules and raises ``ParseError`` at the first line
    that breaks one."""
    labels, counts, cols, values = array("d"), array("q"), array("q"), array("d")
    add_col, add_value = cols.append, values.append   # looked up once, not per token
    d = widest = 0
    for lineno, raw in enumerate(lines, start=first):
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
    return _Block(labels, counts, cols, values, d, widest)


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


@ruled(m=rule(at_least=1), seed=rule(at_least=0))
def partition(ds: Dataset, m: int, seed: int):
    """Even split of the row indices across m agents.

    Rows are shuffled with the given seed and split contiguously; the
    first len(ds.rows) mod m agents receive one extra row.
    """
    if len(ds.rows) < m:
        raise ConfigurationError(f"{len(ds.rows)} rows cannot cover {m} agents")
    order = np.random.default_rng(seed).permutation(len(ds.rows))
    return [np.sort(part) for part in np.array_split(order, m)]
