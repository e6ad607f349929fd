import io

import numpy as np
import pytest

from conftest import incidences
from druid import topology
from druid.errors import ConfigurationError, GraphGenerationError, ParseError
from druid.topology import (
    Graph,
    edge_differences,
    edge_scatter,
    edge_sums,
    random_connected_graph,
    read_edge_list,
    spectral_constants,
    write_edge_list,
)


def path_graph():
    return Graph(3, [(0, 1), (1, 2)])


def test_graphs_compare_by_agent_count_and_edges():
    graph = Graph(3, [(0, 1), (1, 2)])
    assert graph == Graph(3, [(1, 2), (0, 1)])  # edge order is normalized
    assert graph != Graph(3, [(0, 2), (1, 2)])
    assert graph != Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_two_agents_full_probability_gives_single_edge():
    g = random_connected_graph(2, 1.0, seed=0)
    assert g.edges == ((0, 1),)


def test_three_agents_full_probability_gives_triangle():
    g = random_connected_graph(3, 1.0, seed=5)
    assert g.n == 3
    assert g.degrees.tolist() == [2, 2, 2]


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
    for m in (3.0, True, "3"):
        with pytest.raises(ValueError, match=r"m must be an integer"):
            random_connected_graph(m, 0.9, seed=0)
    assert random_connected_graph(np.int64(3), 1.0, seed=0).n == 3
    with pytest.raises(ValueError):
        random_connected_graph(5, 0.0, seed=0)
    with pytest.raises(ValueError):
        random_connected_graph(5, 1.5, seed=0)
    for seed in (-3, 1.5, "7", True):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            random_connected_graph(5, 0.9, seed=seed)
    assert random_connected_graph(3, 1.0, seed=np.int64(4)).n == 3


def test_generation_redraw_cap(monkeypatch):
    monkeypatch.setattr(topology, "MAX_REDRAWS", 10)
    with pytest.raises(GraphGenerationError, match="within 10 redraws$"):
        random_connected_graph(8, 1e-12, seed=0)


def test_graph_validation():
    with pytest.raises(ConfigurationError, match=r"^edges hold a self loop at agent 0$"):
        Graph(3, [(0, 0)])
    with pytest.raises(ConfigurationError, match=r"^edges repeat \(0, 1\)$"):
        Graph(3, [(0, 1), (0, 1), (1, 2)])
    out_of_range = r"^edges must satisfy 0 <= i < j < m=3, got "
    with pytest.raises(ConfigurationError, match=out_of_range + r"\(0, 3\)$"):
        Graph(3, [(0, 3)])
    with pytest.raises(ConfigurationError, match=out_of_range + r"\(2, 0\)$"):
        Graph(3, [(2, 0), (1, 2)])
    with pytest.raises(ConfigurationError, match=r"^edges leave the graph disconnected$"):
        Graph(4, [(0, 1), (2, 3)])  # two components
    for edges in ([(0, 1.5), (1, 2.9)], [(0, True), (1, 2)], [("0", "1"), ("1", "2")]):
        with pytest.raises(ConfigurationError, match=r"^edges must have integer endpoints, got "):
            Graph(3, edges)
    g = Graph(3, [(np.intp(0), np.int32(1)), (np.int64(1), 2)])
    assert g.edges == ((0, 1), (1, 2)) and all(type(v) is int for e in g.edges for v in e)
    for m in (3.0, True, "3", None):
        with pytest.raises(ValueError, match=r"^m must be an integer >= 2, got "):
            Graph(m, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=r"^m must be an integer >= 2, got 1$"):
        Graph(1, [])
    assert Graph(np.int32(3), [(0, 1), (1, 2)]).degrees.tolist() == [1, 2, 1]


def test_neighbor_counts():
    g = random_connected_graph(12, 0.4, seed=2)
    assert g.degrees.sum() == 2 * g.n
    for i in range(g.m):
        neighbors = sorted(j for e in g.edges if i in e for j in e if j != i)
        assert np.flatnonzero(g.adjacency[i]).tolist() == neighbors
        assert g.degrees[i] == len(neighbors)


def test_path_matrices_match_hand_values():
    # the edge actions applied to identities are the matrices they stand for
    g = path_graph()
    eye_m, eye_n, zeros = np.eye(3), np.eye(2), np.zeros((2, 2))
    assert np.array_equal(edge_scatter(g, eye_n, zeros).T, [[1, 0, 0], [0, 1, 0]])   # A_s
    assert np.array_equal(edge_scatter(g, zeros, eye_n).T, [[0, 1, 0], [0, 0, 1]])   # A_d
    E_s = edge_differences(g, eye_m)
    assert np.array_equal(E_s, [[1, -1, 0], [0, 1, -1]])
    assert np.array_equal(edge_sums(g, eye_m), [[1, 1, 0], [0, 1, 1]])
    L_s = edge_scatter(g, E_s, -E_s)
    assert np.array_equal(L_s, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    # one edge row per edge: agent 1 is the destination of edge 0 and the source of edge 1
    a = np.array([[1.0, 10.0], [2.0, 20.0]])
    assert np.array_equal(edge_scatter(g, a, -a), [[1, 10], [1, 10], [-2, -20]])
    assert np.array_equal(edge_scatter(g, a, a), [[1, 10], [3, 30], [2, 20]])


def test_matrix_identities_on_random_graphs():
    for seed in range(4):
        g = random_connected_graph(9, 0.35, seed=seed)
        A_s, A_d = incidences(g)
        E_s, E_u = A_s - A_d, A_s + A_d
        L_s = E_s.T @ E_s
        assert np.array_equal(L_s, np.diag(g.degrees) - g.adjacency)
        assert np.array_equal(A_s.T @ A_s + A_d.T @ A_d, np.diag(g.degrees))
        sc = spectral_constants(g, leader=seed)
        assert sc.sigma_max_Ls == pytest.approx(np.linalg.eigvalsh(L_s)[-1], rel=1e-12)
        assert sc.sigma_max_Lu == pytest.approx(np.linalg.eigvalsh(E_u.T @ E_u)[-1], rel=1e-12)
        assert sc.d_max == g.degrees.max()
        # signed Laplacian annihilates the consensus direction, rank m-1
        assert np.allclose(L_s @ np.ones(g.m), 0.0)
        assert np.linalg.matrix_rank(L_s) == g.m - 1


def test_block_helpers_match_dense_matrices():
    star = Graph(6, [(0, j) for j in range(1, 6)])   # agent 0 is on every edge
    rng = np.random.default_rng(0)
    for g in [*(random_connected_graph(7, 0.5, seed=seed) for seed in range(4)), star]:
        A_s, A_d = incidences(g)
        X = rng.normal(size=(g.m, 2))
        a, b = rng.normal(size=(2, g.n, 2))
        assert np.allclose(edge_differences(g, X), (A_s - A_d) @ X)
        assert np.allclose(edge_sums(g, X), (A_s + A_d) @ X)
        assert np.allclose(edge_scatter(g, a, b), A_s.T @ a + A_d.T @ b)
        # each edge row enters once with each sign: the signed scatter sums to zero
        assert np.allclose(edge_scatter(g, a, -a).sum(axis=0), 0.0)


def test_spectral_constants_on_path():
    g = path_graph()
    sc = spectral_constants(g, leader=0)
    assert sc.sigma_max_Ls == pytest.approx(3.0)
    # unsigned Laplacian of the path has eigenvalues {0, 1, 3}
    assert sc.sigma_max_Lu == pytest.approx(3.0)
    assert sc.d_max == 2
    gram = np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 1]])   # path L_s + e_0 e_0^T
    eigs = np.linalg.eigvalsh(gram)
    assert np.all(eigs > 0)
    assert sc.sigma_min_plus_CCt == pytest.approx(eigs[0])


def test_smallest_positive_eigenvalue_positive_when_connected():
    for seed in range(3):
        g = random_connected_graph(8, 0.4, seed=seed)
        sc = spectral_constants(g, leader=2)
        assert sc.sigma_min_plus_CCt > 0


def test_read_edge_list_refuses_enough_edges_that_leave_the_graph_disconnected():
    # n >= m - 1 edges: Graph itself finds agent 4 unreached
    with pytest.raises(ParseError, match="line 1: header 'm n' declares m=4 agents that its n=3 "
                                         "edges leave disconnected"):
        read_edge_list(io.StringIO("4 3\n1 2\n1 3\n2 3\n"))


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
    with pytest.raises(ParseError, match=r"line 2: edge \(2, 1\) violates 1 <= i < j <= m=3"):
        read_edge_list(io.StringIO("3 1\n2 1\n"))  # i >= j
    with pytest.raises(ParseError, match="line 1: header 'm n' declares m=4 agents that its n=1 "
                                         "edges leave disconnected"):
        read_edge_list(io.StringIO("4 1\n1 2\n"))
    with pytest.raises(ParseError, match="line 1: header 'm n' declares m=1000000 agents that its "
                                         "n=1 edges leave disconnected"):
        read_edge_list(io.StringIO("1000000 1\n1 2\n"))  # before the (m, m) adjacency
    with pytest.raises(ParseError, match=r"line 3: duplicate edge \(1, 2\), first on line 2"):
        read_edge_list(io.StringIO("3 2\n1 2\n1 2\n"))
    with pytest.raises(ParseError, match=r"line 4: duplicate edge \(2, 3\), first on line 2"):
        read_edge_list(io.StringIO("3 3\n2 3\n1 2\n2 3\n"))
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
    for header in ("1 0", "0 0", "-2 0"):
        with pytest.raises(ParseError, match=r"line 1: header 'm n' declares m=-?\d; need at least"):
            read_edge_list(io.StringIO(header + "\n"))
    assert read_edge_list(io.StringIO("3 2\n1 2\n2 3\n\n \n")).edges == ((0, 1), (1, 2))
