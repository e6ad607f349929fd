import io

import numpy as np
import pytest

from druid.errors import GraphGenerationError, ParseError
from druid.topology import (
    Graph,
    build_matrices,
    edge_differences,
    edge_sums,
    random_connected_graph,
    read_edge_list,
    spectral_constants,
    write_edge_list,
)


def path_graph():
    return Graph(3, [(0, 1), (1, 2)])


def test_two_agents_full_probability_gives_single_edge():
    g = random_connected_graph(2, 1.0, seed=0)
    assert g.edges == ((0, 1),)


def test_three_agents_full_probability_gives_triangle():
    g = random_connected_graph(3, 1.0, seed=5)
    assert g.n == 3
    assert all(g.degree(i) == 2 for i in range(3))


def test_generation_is_deterministic():
    a = random_connected_graph(20, 0.2, seed=7)
    b = random_connected_graph(20, 0.2, seed=7)
    assert a.edges == b.edges
    c = random_connected_graph(20, 0.2, seed=8)
    assert c.edges != a.edges


def test_generation_redraws_keep_their_stream():
    # the first eight draws are disconnected, so this pins the redraw stream
    g = random_connected_graph(8, 0.25, seed=1)
    assert g.edges == ((0, 1), (0, 4), (0, 5), (0, 6), (0, 7),
                       (2, 5), (2, 6), (3, 4), (4, 6), (6, 7))


def test_generation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        random_connected_graph(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        random_connected_graph(5, 0.0, seed=0)
    with pytest.raises(ValueError):
        random_connected_graph(5, 1.5, seed=0)


def test_generation_redraw_cap():
    with pytest.raises(GraphGenerationError):
        random_connected_graph(8, 1e-12, seed=0, max_redraws=10)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match=r"edge \(2, 0\) must satisfy 0 <= i < j"):
        Graph(3, [(2, 0), (1, 2)])
    with pytest.raises(ValueError):
        Graph(4, [(0, 1), (2, 3)])  # two components
    for edges in ([(0, 1.5), (1, 2.9)], [(0, True), (1, 2)], [("0", "1"), ("1", "2")]):
        with pytest.raises(ValueError, match=r"must have integer endpoints"):
            Graph(3, edges)
    g = Graph(3, [(np.intp(0), np.int32(1)), (np.int64(1), 2)])
    assert g.edges == ((0, 1), (1, 2)) and all(type(v) is int for e in g.edges for v in e)


def test_neighbor_counts():
    g = random_connected_graph(12, 0.4, seed=2)
    assert sum(g.degree(i) for i in range(g.m)) == 2 * g.n
    for i in range(g.m):
        assert g.degree(i) == len(g.neighbors(i))
        assert g.neighbors(i) == tuple(sorted(j for e in g.edges if i in e for j in e if j != i))


def test_path_matrices_match_hand_values():
    tm = build_matrices(path_graph())
    assert np.array_equal(tm.A_s, [[1, 0, 0], [0, 1, 0]])
    assert np.array_equal(tm.A_d, [[0, 1, 0], [0, 0, 1]])
    assert np.array_equal(tm.E_s, [[1, -1, 0], [0, 1, -1]])
    assert np.array_equal(tm.L_s, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert np.array_equal(tm.D, np.diag([1, 2, 1]))


def test_matrix_identities_on_random_graphs():
    for seed in range(4):
        g = random_connected_graph(9, 0.35, seed=seed)
        tm = build_matrices(g)
        assert np.array_equal(tm.E_s, tm.A_s - tm.A_d)
        assert np.array_equal(tm.E_u, tm.A_s + tm.A_d)
        assert np.array_equal(tm.L_s, tm.E_s.T @ tm.E_s)
        assert np.array_equal(tm.D, 0.5 * (tm.L_s + tm.L_u))
        assert np.array_equal(tm.D, tm.A_s.T @ tm.A_s + tm.A_d.T @ tm.A_d)
        assert np.array_equal(np.diag(tm.D), g.degrees)
        # signed Laplacian annihilates the consensus direction, rank m-1
        assert np.allclose(tm.L_s @ np.ones(g.m), 0.0)
        assert np.linalg.matrix_rank(tm.L_s) == g.m - 1


def test_block_helpers_match_dense_matrices():
    g = random_connected_graph(7, 0.5, seed=4)
    tm = build_matrices(g)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(g.m, 2))
    assert np.allclose(edge_differences(g, X), tm.E_s @ X)
    assert np.allclose(edge_sums(g, X), tm.E_u @ X)


def test_spectral_constants_on_path():
    tm = build_matrices(path_graph())
    sc = spectral_constants(tm, leader=0)
    assert sc.sigma_max_Ls == pytest.approx(3.0)
    # unsigned Laplacian of the path has eigenvalues {0, 1, 3}
    assert sc.sigma_min_Lu == pytest.approx(0.0, abs=1e-12)
    assert sc.sigma_max_Lu == pytest.approx(3.0)
    assert sc.d_max == 2
    gram = np.array(tm.L_s)
    gram[0, 0] += 1.0
    eigs = np.linalg.eigvalsh(gram)
    assert np.all(eigs > 0)
    assert sc.sigma_min_plus_CCt == pytest.approx(eigs[0])


def test_smallest_positive_eigenvalue_positive_when_connected():
    for seed in range(3):
        g = random_connected_graph(8, 0.4, seed=seed)
        sc = spectral_constants(build_matrices(g), leader=2)
        assert sc.sigma_min_plus_CCt > 0


def test_edge_list_round_trip():
    g = random_connected_graph(9, 0.4, seed=13)
    buf = io.StringIO()
    write_edge_list(g, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == f"{g.m} {g.n}"
    again = read_edge_list(io.StringIO(text))
    assert again.m == g.m and again.edges == g.edges


def test_edge_list_is_one_based():
    buf = io.StringIO()
    write_edge_list(path_graph(), buf)
    assert buf.getvalue() == "3 2\n1 2\n2 3\n"


def test_read_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("3 1\n2 1\n"))  # i >= j
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("4 1\n1 2\n"))  # disconnected
    with pytest.raises(ParseError, match="line 4: non-blank line after the 2 declared edges"):
        read_edge_list(io.StringIO("3 2\n1 2\n2 3\n1 3\n"))
    with pytest.raises(ParseError, match="line 5:"):
        read_edge_list(io.StringIO("3 2\n1 2\n2 3\n\n  x\n"))
    with pytest.raises(ParseError, match=r"line 1: header 'm n' declares a negative edge count"):
        read_edge_list(io.StringIO("3 -1\n"))
    with pytest.raises(ParseError, match="line 1: expected header"):
        read_edge_list(io.StringIO("3\n"))
    with pytest.raises(ParseError, match="line 3: expected edge line"):
        read_edge_list(io.StringIO("3 2\n1 2\n"))  # fewer edges than declared
    assert read_edge_list(io.StringIO("3 2\n1 2\n2 3\n\n \n")).edges == ((0, 1), (1, 2))
