"""Communication graph, its edge actions and its spectral constants.

Agents are indexed 0..m-1 internally; the edge-list text format is 1-based.
Every stored edge (i, j) satisfies i < j, with i the source and j the
destination, and edges are enumerated in lexicographic order so that runs
are reproducible.  No incidence matrix is built: ``edge_differences`` and
``edge_sums`` gather (m, d) agent rows over ``Graph.src``/``Graph.dst`` into
(n, d) edge rows, ``edge_scatter`` is their transpose, and the network
iteration and ``spectral_constants`` work with the cached
``Graph.adjacency`` and degrees.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .errors import (ConfigurationError, GraphGenerationError, ParseError, check_rules, rule,
                     rule_of, ruled)

SPECTRAL_ZERO_TOL = 1e-10  # relative level of a zero eigenvalue
MAX_REDRAWS = 10_000  # draws ``random_connected_graph`` makes before it gives up


@dataclass
class Graph:
    """Undirected connected graph over m agents.

    Parameters
    ----------
    m : int
        Number of agents, an integer of at least 2 (numpy integers too).
    edges : sequence of (int, int)
        Edge list with 0-based integer endpoints i < j (numpy integers are
        accepted; bools, floats and strings are not).  Order is normalized
        to lexicographic regardless of the order given.

    ``src``/``dst`` hold the edge endpoints and ``adjacency`` the dense
    symmetric 0/1 (m, m) adjacency matrix, cached at construction; the
    agents' neighbor counts ``degrees`` (m,) derive from it.  Two graphs
    are equal when their ``m`` and normalized ``edges`` are.
    """

    m: int = rule(at_least=2)
    edges: tuple = ()
    src: np.ndarray = field(init=False, repr=False, compare=False)
    dst: np.ndarray = field(init=False, repr=False, compare=False)
    adjacency: np.ndarray = field(init=False, repr=False, compare=False)
    degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_rules(self)
        given = [tuple(e) for e in self.edges]
        for t in {type(v) for e in given for v in e}:  # one check per endpoint type
            if t is bool or not issubclass(t, numbers.Integral):
                bad = next(e for e in given if t in map(type, e))
                raise ConfigurationError(f"edges must have integer endpoints, got {bad!r}")
        edges = tuple(sorted((int(i), int(j)) for i, j in given))
        seen = set()
        for i, j in edges:
            if i == j:
                raise ConfigurationError(f"edges hold a self loop at agent {i}")
            if not (0 <= i < j < self.m):
                raise ConfigurationError(f"edges must satisfy 0 <= i < j < m={self.m}, "
                                         f"got ({i}, {j})")
            if (i, j) in seen:
                raise ConfigurationError(f"edges repeat ({i}, {j})")
            seen.add((i, j))
        self.edges = edges
        self.src = np.array([e[0] for e in edges], dtype=np.intp)
        self.dst = np.array([e[1] for e in edges], dtype=np.intp)
        self.adjacency = np.zeros((self.m, self.m))
        self.adjacency[self.src, self.dst] = 1.0
        self.adjacency[self.dst, self.src] = 1.0
        self.degrees = self.adjacency.sum(axis=1).astype(int)
        if not _connected(self.adjacency):
            raise ConfigurationError("edges leave the graph disconnected")

    @property
    def n(self) -> int:
        """Number of edges."""
        return len(self.edges)


@dataclass(frozen=True)
class SpectralConstants:
    sigma_max_Ls: float
    sigma_max_Lu: float
    sigma_min_plus_CCt: float
    d_max: int


def _connected(adjacency: np.ndarray) -> bool:
    """Whether every agent is reachable from agent 0 over the symmetric 0/1
    (m, m) ``adjacency``: the reached set grows by its neighbors until it
    stops.  A few matrix-vector products; scipy's ``connected_components``
    costs six to ten times more per call on these small dense graphs."""
    reached = np.arange(len(adjacency)) == 0
    while True:
        grown = reached | (adjacency @ reached > 0)
        if (grown == reached).all():
            return bool(reached.all())
        reached = grown


@ruled(m=rule_of(Graph, "m"), p=rule(above=0, at_most=1), seed=rule(at_least=0))
def random_connected_graph(m: int, p: float, seed: int) -> Graph:
    """Sample a connected Erdos-Renyi style graph, redrawing until connected.

    Each unordered pair is included independently with probability ``p``;
    if the draw is disconnected the whole graph is redrawn from the same
    stream, up to ``MAX_REDRAWS`` draws in all.  Deterministic given (m, p, seed).
    """
    src, dst = np.triu_indices(m, 1)  # the pairs (i, j), i < j, in lexicographic order
    rng = np.random.default_rng(seed)
    for _ in range(MAX_REDRAWS):
        mask = rng.random(len(src)) < p
        adjacency = np.zeros((m, m))
        adjacency[src[mask], dst[mask]] = adjacency[dst[mask], src[mask]] = 1.0
        if _connected(adjacency):
            return Graph(m, zip(src[mask], dst[mask]))
    raise GraphGenerationError(f"no connected graph with m={m}, p={p} within {MAX_REDRAWS} redraws")


@ruled(leader=rule(at_least=0))
def constraint_gram(g: Graph, leader: int) -> np.ndarray:
    """C C^T = L_s + e_l e_l^T, with L_s = diag(degrees) - adjacency, where C
    stacks the signed incidence over the selection row of agent ``leader``."""
    if leader >= g.m:
        raise ConfigurationError(f"leader {leader} out of range for m={g.m}")
    gram = np.diag(g.degrees) - g.adjacency
    gram[leader, leader] += 1.0
    return gram


def spectral_constants(g: Graph, leader: int) -> SpectralConstants:
    """Largest eigenvalues of the signed and unsigned Laplacians
    L_s, L_u = diag(degrees) -/+ adjacency, the largest degree, and the
    smallest positive eigenvalue of ``constraint_gram(g, leader)``; positive
    eigenvalues below ``SPECTRAL_ZERO_TOL`` times the largest are treated
    as zero.
    """
    eig_C = np.linalg.eigvalsh(constraint_gram(g, leader))
    degrees = np.diag(g.degrees)
    eig_Ls = np.linalg.eigvalsh(degrees - g.adjacency)
    eig_Lu = np.linalg.eigvalsh(degrees + g.adjacency)
    cutoff = SPECTRAL_ZERO_TOL * max(eig_C[-1], 1.0)
    return SpectralConstants(
        sigma_max_Ls=float(eig_Ls[-1]),
        sigma_max_Lu=float(eig_Lu[-1]),
        sigma_min_plus_CCt=float(eig_C[eig_C > cutoff][0]),
        d_max=int(g.degrees.max()),
    )


# Actions of the (n, m) source/destination incidences on (m, d) and (n, d) arrays.

def edge_differences(g: Graph, X: np.ndarray) -> np.ndarray:
    """Signed incidence applied to agent states: row k is x_src - x_dst."""
    return X[g.src] - X[g.dst]


def edge_sums(g: Graph, X: np.ndarray) -> np.ndarray:
    """Unsigned incidence applied to agent states: row k is x_src + x_dst."""
    return X[g.src] + X[g.dst]


def edge_scatter(g: Graph, at_src: np.ndarray, at_dst: np.ndarray) -> np.ndarray:
    """Transposed incidences applied to edge rows: agent i receives the sum,
    in edge order, of ``at_src`` over the edges it is the source of and of
    ``at_dst`` over those it is the destination of.  ``edge_scatter(g, a, -a)``
    is the signed incidence's transpose applied to ``a``."""
    out = np.zeros((g.m, *at_src.shape[1:]))
    np.add.at(out, g.src, at_src)
    np.add.at(out, g.dst, at_dst)
    return out


# Edge-list text format: first line "m n", then n lines "i j" (1-based, i < j);
# only blank lines may follow the edges.

def write_edge_list(g: Graph, stream: TextIO) -> None:
    stream.write(f"{g.m} {g.n}\n")
    for i, j in g.edges:
        stream.write(f"{i + 1} {j + 1}\n")


def _int_pair(line: str, lineno: int, expected: str) -> tuple:
    try:
        a, b = map(int, line.split())  # ValueError on a non-integer or a wrong count
    except ValueError:
        raise ParseError(f"expected {expected}, got {line.strip()!r}", lineno) from None
    return a, b


def read_edge_list(stream: TextIO) -> Graph:
    """Parse the edge-list text format; a malformed line, a duplicate edge or
    a disconnected graph raises ``ParseError`` with its 1-based line number
    (line 1, the header, for a disconnected graph)."""
    m, n = _int_pair(stream.readline(), 1, "header 'm n'")
    if m < 2:
        raise ParseError(f"header 'm n' declares m={m}; need at least 2 agents", 1)
    if n < 0:
        raise ParseError(f"header 'm n' declares a negative edge count n={n}", 1)
    edges = {}   # 0-based edge -> its line, in file order
    for lineno in range(2, n + 2):
        i, j = _int_pair(stream.readline(), lineno, "edge line 'i j'")
        if not (1 <= i < j <= m):
            raise ParseError(f"edge ({i}, {j}) violates 1 <= i < j <= m={m}", lineno)
        if (i - 1, j - 1) in edges:
            raise ParseError(f"duplicate edge ({i}, {j}), first on line "
                             f"{edges[i - 1, j - 1]}", lineno)
        edges[i - 1, j - 1] = lineno
    for lineno, line in enumerate(stream, start=n + 2):
        if line.strip():
            raise ParseError(f"non-blank line after the {n} declared edges", lineno)
    if n >= m - 1:   # fewer edges leave m agents disconnected: no (m, m) adjacency needed
        try:
            return Graph(m, edges.keys())
        except ConfigurationError:   # the lines meet Graph's other rules: it is disconnected
            pass
    raise ParseError(f"header 'm n' declares m={m} agents that its n={n} edges "
                     "leave disconnected", 1)
