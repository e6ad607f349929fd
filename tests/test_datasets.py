import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from druid import datasets
from druid.datasets import Dataset, binarize_labels, parse_libsvm, partition
from druid.errors import ConfigurationError, ParseError


def test_parse_single_line():
    ds = parse_libsvm("1 1:0.5 3:-2\n")
    assert len(ds.rows) == 1 and ds.d == 3
    assert ds.labels.tolist() == [1.0]
    assert ds.rows.tolist() == [[0.5, 0.0, -2.0]]


def test_datasets_compare_by_identity_without_raising():
    ds = parse_libsvm("1 1:0.5 3:-2\n0 2:1\n")
    assert ds == ds
    assert ds != Dataset(ds.labels.copy(), ds.rows.copy())


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


# Tokens the block conversion must treat exactly as the per-token loop does.
LABELS = ["1", "-1", "0.25", "-3e-5", "+2", "-0.0", "1_0", "٣", "nan", "-inf", "x", "1:1"]
VALUES = ["0.5", "-2", "1e-3", "7", "-0.0", "3.25e2", "1_0.5", "٣.5"]
MALFORMED = ["1:2:3", "5", "-2.5", ":5", "5:", "::", "1.0:2", "1e0:1", "1:nan", "1:1e400",
             "0:1", "-3:1", "1:1", "1_0:1", "٣:1", "99999999999999999999:1",
             "9223372036854775808:1", "9223372036854775807:1", "\ud800:1", "2:x",
             # indices int() reads: with a sign, with leading zeros, of the 18 digits
             # an int64 always holds, and of 19
             "+3:1", "007:1", "999999999999999999:1", "1000000000000000000:1"]
SEPARATORS = [" ", "  ", "\t", " \t", "\x0c"]


@st.composite
def sample_lines(draw):
    """One line of text: blank, comment only, or a sample with increasing
    indices that may carry up to two malformed tokens, odd spacing or a
    comment."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(["", "  ", "\t"]))
    if kind == 1:
        return "# comment 1:x"
    tokens, idx = [draw(st.sampled_from(LABELS))], 0
    for _ in range(draw(st.integers(0, 5))):
        idx += draw(st.integers(1, 3))
        tokens.append(f"{idx}:{draw(st.sampled_from(VALUES))}")
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(1, len(tokens))), draw(st.sampled_from(MALFORMED)))
    sep = draw(st.sampled_from(SEPARATORS))
    line = draw(st.sampled_from(["", " "])) + sep.join(tokens)
    return line + draw(st.sampled_from(["", " ", " # note", "#1:1"]))


def parse_outcome(text, **patches):
    """parse_libsvm's arrays as bytes, or its error's message and line."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patches.items():
            mp.setattr(datasets, name, value)
        try:
            ds = parse_libsvm(text)
        except ParseError as err:
            return str(err), err.line
    return ds.labels.tobytes(), ds.rows.shape, ds.rows.tobytes()


def loop_outcome(text):
    """The per-token loop over the whole input: no block is converted by numpy."""
    return parse_outcome(text, _BLOCK_BYTES=0, _convert_block=lambda lines, first: None)


@settings(max_examples=40, deadline=None)
@given(st.lists(sample_lines(), max_size=12), st.sampled_from([16, 40, 90]))
@example(["1 1:2:3 5"], 90)   # two ":" in one token and none in the next
@example(["1 4:1", "2 9223372036854775808:1"], 90)   # past int64: numpy refuses, int() does not
def test_block_parse_matches_the_per_token_loop(lines, block_bytes):
    text = "\n".join(lines) + "\n"
    assert parse_outcome(text, _BLOCK_BYTES=block_bytes) == loop_outcome(text)


def no_loop(lines, first):
    raise AssertionError(f"the block at line {first} was parsed token by token")


@pytest.mark.parametrize("sep, end", [("\t", "\n"), ("   ", "\n"), ("\x0c", "\n"),
                                      (" ", "  \n"), (" ", "\r\n"), ("\u2003", "\n")],
                         ids=["tab", "spaces", "form-feed", "trailing", "crlf", "em-space"])
def test_other_whitespace_is_converted_by_the_block(monkeypatch, sep, end):
    # normalized to single spaces, not left to the about 3 times slower per-token loop
    monkeypatch.setattr(datasets, "_parse_lines", no_loop)
    text = sep.join(["1", "1:0.5", "3:-2"]) + end + sep.join(["-1", "2:4"]) + end + "2" + end
    ds = parse_libsvm(text)
    assert ds.labels.tolist() == [1.0, -1.0, 2.0]
    assert ds.rows.tolist() == [[0.5, 0.0, -2.0], [0.0, 4.0, 0.0], [0.0, 0.0, 0.0]]


def test_indices_of_up_to_18_digits_are_read_from_their_digits(monkeypatch):
    monkeypatch.setattr(datasets, "_parse_lines", no_loop)
    assert parse_libsvm("1 007:1\n").rows.tolist() == [[0.0] * 6 + [1.0]]
    with pytest.raises(ParseError, match="feature index 999999999999999999 needs a dense 2 x "):
        parse_libsvm("1 1:1\n1 2:1 999999999999999999:1\n")


def test_bad_token_in_third_block_names_its_line(monkeypatch):
    lines = ["1 1:0.5 2:0.25"] * 8
    lines[5] = "1 1:0.5 2:bad"
    text = "\n".join(lines) + "\n"   # 15 characters a line: two lines a block
    monkeypatch.setattr(datasets, "_BLOCK_BYTES", 20)
    calls = []
    loop = datasets._parse_lines
    monkeypatch.setattr(datasets, "_parse_lines",
                        lambda lines, first: calls.append(first) or loop(lines, first))
    with pytest.raises(ParseError, match="line 6: bad feature token '2:bad'") as err:
        parse_libsvm(text)
    assert err.value.line == 6 and calls == [5]   # blocks 1 and 2 converted by numpy


def test_bad_token_takes_precedence_over_an_earlier_huge_index(monkeypatch):
    lines = ["1 1:0.5 2:0.25"] * 6
    lines[0] = "1 4611686018427387904:1"   # parses, but no dense array can hold it
    lines[4] = "1 0:1"
    monkeypatch.setattr(datasets, "_BLOCK_BYTES", 20)
    with pytest.raises(ParseError, match="line 5: feature index 0 below 1"):
        parse_libsvm("\n".join(lines) + "\n")
    del lines[4]
    with pytest.raises(ParseError, match="dense 5 x 4611686018427387904") as err:
        parse_libsvm("\n".join(lines) + "\n")
    assert err.value.line == 1


@pytest.mark.parametrize("block_bytes", [20, 1 << 16])
def test_widest_line_is_the_first_to_reach_the_largest_index(monkeypatch, block_bytes):
    monkeypatch.setattr(datasets, "_BLOCK_BYTES", block_bytes)
    lines = ["1 1:0.5 2:0.25"] * 6
    lines[1] = lines[2] = lines[4] = "1 4611686018427387904:1"
    with pytest.raises(ParseError, match="dense 6 x 4611686018427387904") as err:
        parse_libsvm("\n".join(lines) + "\n")
    assert err.value.line == 2


def test_parse_memory_stays_bounded():
    # the parse holds one block of tokens at a time: converting the whole
    # input at once peaks at about 32 times the dense array, a block at 4
    rng = np.random.default_rng(11)
    labels, rows = rng.standard_normal(2000), rng.standard_normal((2000, 50))
    text = "".join(" ".join([repr(float(label))] + [f"{j + 1}:{float(v)!r}"
                                                    for j, v in enumerate(row)]) + "\n"
                   for label, row in zip(labels, rows))
    source = io.StringIO(text)
    tracemalloc.start()
    try:
        ds = parse_libsvm(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.rows, rows)
    assert peak < 10 * rows.nbytes


def test_binarize_labels():
    y = np.array([-1.0, 1.0, -1.0])
    assert binarize_labels(y) == pytest.approx([0.0, 1.0, 0.0])
    assert binarize_labels(np.array([3.0, 7.0])) == pytest.approx([0.0, 1.0])
    with pytest.raises(ConfigurationError):
        binarize_labels(np.array([0.0, 1.0, 2.0]))


def test_binarize_labels_maps_a_single_label_value_to_zero():
    assert binarize_labels(np.array([4.0, 4.0, 4.0])).tolist() == [0.0, 0.0, 0.0]


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
