import io

import numpy as np
import pytest

from druid.datasets import (
    Dataset,
    binarize_labels,
    dense_features,
    parse_libsvm,
    partition,
    write_libsvm,
)
from druid.errors import ConfigurationError, ParseError


def test_parse_single_line():
    ds = parse_libsvm("1 1:0.5 3:-2\n")
    assert len(ds) == 1 and ds.d == 3
    X, y = dense_features(ds)
    assert y == pytest.approx([1.0])
    assert X[0] == pytest.approx([0.5, 0.0, -2.0])


def test_parse_skips_blanks_and_comments():
    text = "# header comment\n\n1 1:1.0  # trailing note\n\n-1 2:3.5\n"
    ds = parse_libsvm(text)
    assert len(ds) == 2 and ds.d == 2
    assert ds.rows[0] == (1.0, {1: 1.0})
    assert ds.rows[1] == (-1.0, {2: 3.5})


def test_parse_empty_input():
    ds = parse_libsvm("")
    assert len(ds) == 0 and ds.d == 0
    with pytest.raises(ConfigurationError):
        dense_features(ds)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_libsvm("1 1:0.5\nfoo 1:1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_libsvm("1 2:1 2:2\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_libsvm("1 3:1 2:2\n")  # decreasing
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_libsvm("1 0:1\n")  # index below 1
    with pytest.raises(ParseError):
        parse_libsvm("1 1:abc\n")
    for text, line in (("1 1:nan 2:inf\nnan 1:1\n", 1), ("1 1:1\nnan 1:1\n", 2),
                       ("1 1:1\n-inf 2:1\n", 2), ("1 1:1 2:-inf\n", 1), ("1 1:1e400\n", 1)):
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_libsvm(text)
        assert err.value.line == line


def test_round_trip_random_sparse_data():
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(30):
        idx = np.sort(rng.choice(np.arange(1, 12), size=rng.integers(0, 6), replace=False))
        rows.append((float(rng.normal()), {int(i): float(rng.normal()) for i in idx}))
    ds = Dataset(rows=rows, d=max((max(r[1]) for r in rows if r[1]), default=0))
    buf = io.StringIO()
    write_libsvm(ds, buf)
    again = parse_libsvm(buf.getvalue())
    assert again.rows == ds.rows


def test_binarize_labels():
    y = np.array([-1.0, 1.0, -1.0])
    assert binarize_labels(y) == pytest.approx([0.0, 1.0, 0.0])
    assert binarize_labels(np.array([3.0, 7.0])) == pytest.approx([0.0, 1.0])
    with pytest.raises(ConfigurationError):
        binarize_labels(np.array([0.0, 1.0, 2.0]))


def make_dataset(n):
    return Dataset(rows=[(float(i), {1: float(i)}) for i in range(n)], d=1)


def test_partition_sizes_with_remainder():
    parts = partition(make_dataset(10), 3, seed=0)
    assert [len(p) for p in parts] == [4, 3, 3]
    flat = np.sort(np.concatenate(parts))
    assert np.array_equal(flat, np.arange(10))


def test_partition_singletons():
    parts = partition(make_dataset(4), 4, seed=1)
    assert [len(p) for p in parts] == [1, 1, 1, 1]


def test_partition_determinism():
    a = partition(make_dataset(20), 4, seed=3)
    b = partition(make_dataset(20), 4, seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = partition(make_dataset(20), 4, seed=4)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    assert [len(p) for p in a] == [len(p) for p in c]


def test_partition_needs_enough_rows():
    with pytest.raises(ConfigurationError):
        partition(make_dataset(2), 3, seed=0)
