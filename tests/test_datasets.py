import numpy as np
import pytest

from druid import datasets
from druid.datasets import Dataset, binarize_labels, parse_libsvm, partition
from druid.errors import ConfigurationError, ParseError


def test_parse_single_line():
    ds = parse_libsvm("1 1:0.5 3:-2\n")
    assert len(ds.rows) == 1 and ds.d == 3
    assert ds.labels.tolist() == [1.0]
    assert ds.rows.tolist() == [[0.5, 0.0, -2.0]]


def test_parse_skips_blanks_and_comments():
    text = "# header comment\n\n1 1:1.0  # trailing note\n\n-1 2:3.5\n"
    ds = parse_libsvm(text)
    assert len(ds.rows) == 2 and ds.d == 2
    assert ds.labels.tolist() == [1.0, -1.0]
    assert ds.rows.tolist() == [[1.0, 0.0], [0.0, 3.5]]


def test_parse_empty_input():
    ds = parse_libsvm("")
    assert len(ds.rows) == 0 and ds.d == 0
    assert ds.labels.shape == (0,) and ds.rows.shape == (0, 0)
    ds = parse_libsvm("1\n-1  # no features\n")
    assert len(ds.rows) == 2 and ds.d == 0 and ds.rows.shape == (2, 0)


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


def test_huge_feature_index_names_its_line():
    with pytest.raises(ParseError, match="too large") as err:
        parse_libsvm("1 1:1\n1 99999999999999999999:1\n")  # beyond a 64-bit index
    assert err.value.line == 2
    # numpy rejects a shape of more bytes than it can address before allocating
    with pytest.raises(ParseError, match="dense 3 x 4611686018427387904") as err:
        parse_libsvm("1 1:1\n1 4611686018427387904:1\n1 2:1\n")
    assert err.value.line == 2


def test_failed_dense_allocation_names_the_widest_line(monkeypatch):
    def out_of_memory(shape, *args, **kwargs):
        raise MemoryError(f"cannot allocate {shape}")

    monkeypatch.setattr(datasets.np, "zeros", out_of_memory)
    with pytest.raises(ParseError, match="feature index 1000000000000") as err:
        parse_libsvm("1 1:1\n1 2:1 1000000000000:1\n1 7:1\n")
    assert err.value.line == 2


def test_round_trip_random_sparse_data():
    # dense rows written as sparse text at full precision parse back bit for bit
    rng = np.random.default_rng(5)
    labels = rng.normal(size=30)
    rows = np.where(rng.random((30, 11)) < 0.3, rng.normal(size=(30, 11)), 0.0)
    rows[:, -1] = 0.0
    rows[3, -1] = -0.25
    lines = [" ".join([repr(float(label))] + [f"{i + 1}:{float(row[i])!r}"
                                              for i in np.flatnonzero(row)])
             for label, row in zip(labels, rows)]
    ds = parse_libsvm("\n".join(lines) + "\n")
    assert ds.d == 11
    assert np.array_equal(ds.labels, labels) and np.array_equal(ds.rows, rows)


def test_binarize_labels():
    y = np.array([-1.0, 1.0, -1.0])
    assert binarize_labels(y) == pytest.approx([0.0, 1.0, 0.0])
    assert binarize_labels(np.array([3.0, 7.0])) == pytest.approx([0.0, 1.0])
    with pytest.raises(ConfigurationError):
        binarize_labels(np.array([0.0, 1.0, 2.0]))


def make_dataset(n):
    return Dataset(labels=np.arange(n, dtype=float), rows=np.arange(n, dtype=float)[:, None])


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
