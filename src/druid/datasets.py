"""Sparse text-format dataset ingestion and partitioning across agents.

The accepted grammar is one sample per line, ``<label> <idx>:<val> ...``
with 1-based strictly increasing indices per line and finite labels and
values; blank lines are skipped and ``#`` starts a comment running to the
end of the line.  Samples are parsed straight into dense arrays.

``parse_libsvm`` reads about ``_BLOCK_BYTES`` characters of whole lines at
a time.  Each line is split once, into its label and its feature text; the
block's feature texts are scanned as bytes, each index is read from its
ASCII digits, and only labels and values pass through Python's ``float``
(numpy calls it on each), so what the conversion accepts it reads as the
per-token loop does.  Array operations check the rules, and the block's
arrays are appended to flat typed buffers, so one block's text and values
are the parse's only transient Python objects.  A block that the
conversion or a rule refuses is parsed again by the per-token loop, which
defines the grammar: it raises the ``ParseError`` of the block's first bad
line, or reads what the conversion leaves to ``int`` (an index with a
sign, an underscore, non-ASCII digits or more than 18 digits).
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
    block is converted by array operations; a block that they or a rule
    refuse is parsed again token by token, which names its first bad line.
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
    """The block starting at line ``first``, converted by array operations;
    None when a token or a rule fails."""
    label_tokens, texts, counts, at = [], [], [], []   # at: line offset of each sample
    for k, raw in enumerate(lines):
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split(None, 1)
        if fields:
            label_tokens.append(fields[0])
            if len(fields) > 1:
                texts.append(fields[1].rstrip())
            counts.append(len(fields) - 1)   # 1 for feature text: its tokens, counted below
            at.append(k)
    try:
        labels = np.array(label_tokens, dtype=float)
        joined = "\n".join(texts)
        features = _split_features(joined) if joined.isascii() else None
        if features is None:   # a bad token, or whitespace that single spaces can replace
            features = _split_features("\n".join(" ".join(rest.split()) for rest in texts))
    except ValueError:   # a value float() refuses; UnicodeEncodeError is a ValueError
        return None
    if features is None:
        return None
    idx, values, per_text = features
    counts = np.array(counts, dtype=np.int64)
    counts[counts > 0] = per_text
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


def _split_features(joined: str) -> tuple | None:
    """(indices, values, tokens per line) of feature texts joined by newlines,
    each a single-space separated run of ``<idx>:<val>`` tokens; None when a
    token does not hold exactly one ":", holds other whitespace, has no value
    or has an index that is not 1 to 18 ASCII digits (an int64 holds 18;
    ``int`` may still read it).  A value ``float`` refuses raises ValueError."""
    if not joined:   # no sample of the block has a feature
        return np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64)
    raw = bytearray(joined, "utf-8")
    text = np.frombuffer(raw, np.uint8)   # a writable view of ``raw``
    at_sep = np.flatnonzero((text == 58) | (text <= 32))   # ":", whitespace and control bytes
    seps = text[at_sep]
    colons = at_sep[0::2]
    line_ends = seps[1::2] == 10
    # each token holds one ":" and no other separator exactly when the
    # separators alternate between ":" and a " " or "\n"
    if not (len(seps) % 2 and (seps[0::2] == 58).all() and ((seps[1::2] == 32) | line_ends).all()):
        return None
    width = colons.copy()   # of each index: from the token's start to its ":"
    width[1:] -= at_sep[1::2] + 1   # less the separator before the token
    if width.min() < 1 or width.max() > 18:
        return None
    digits = text - 48   # uint8: an ASCII digit becomes 0-9, any other byte 10 or more
    idx = digits[colons - 1].astype(np.int64)
    if (idx > 9).any():
        return None
    text[colons] = text[colons - 1] = 32   # blank the ":" and, digit by digit, the index
    for w in range(1, width.max()):   # the digit w places before the ":"
        longer = width > w
        at = colons[longer] - 1 - w
        digit = digits[at]
        if (digit > 9).any():
            return None
        idx[longer] += digit.astype(np.int64) * 10 ** w
        text[at] = 32
    values = np.array(raw.decode().split(), dtype=float)   # float() per value, as in the loop
    if len(values) != len(colons):   # a token with no value
        return None
    last = np.flatnonzero(line_ends)   # the last token of each line but the final one
    return idx, values, np.diff(last, prepend=-1, append=len(colons) - 1)


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
