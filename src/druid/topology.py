"""Communication graph and derived incidence/Laplacian structure.

Agents are indexed 0..m-1 internally; the edge-list text format is 1-based.
Every stored edge (i, j) satisfies i < j, with i the source and j the
destination, and edges are enumerated in lexicographic order so that runs
are reproducible.  Block (Kronecker-with-identity) versions of the matrices
are never materialized: ``edge_differences``/``edge_sums`` apply the
incidences to (m, d) arrays directly, and the network iteration works
with the cached dense ``Graph.adjacency``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .errors import GraphGenerationError


@dataclass
class Graph:
    """Undirected connected graph over m agents.

    Parameters
    ----------
    m : int
        Number of agents (at least 2).
    edges : sequence of (int, int)
        Edge list with 0-based endpoints i < j.  Order is normalized to
        lexicographic regardless of the order given.

    ``src``/``dst`` hold the edge endpoints and ``adjacency`` the dense
    symmetric 0/1 (m, m) adjacency matrix, cached at construction; the
    agents' neighbor counts ``degrees`` (m,) and neighbors derive from it.
    """

    m: int
    edges: tuple = ()
    src: np.ndarray = field(init=False, repr=False)
    dst: np.ndarray = field(init=False, repr=False)
    adjacency: np.ndarray = field(init=False, repr=False)
    degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        edges = tuple(sorted((int(i), int(j)) for i, j in self.edges))
        if self.m < 2:
            raise ValueError(f"need at least 2 agents, got m={self.m}")
        seen = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self loop at agent {i}")
            if not (0 <= i < j < self.m):
                raise ValueError(f"edge ({i}, {j}) out of range for m={self.m}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        self.edges = edges
        self.src = np.array([e[0] for e in edges], dtype=np.intp)
        self.dst = np.array([e[1] for e in edges], dtype=np.intp)
        self.adjacency = np.zeros((self.m, self.m))
        self.adjacency[self.src, self.dst] = 1.0
        self.adjacency[self.dst, self.src] = 1.0
        self.degrees = self.adjacency.sum(axis=1).astype(int)
        if not _connected(self.adjacency):
            raise ValueError("graph is not connected")

    @property
    def n(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def neighbors(self, i: int) -> tuple:
        return tuple(int(j) for j in np.flatnonzero(self.adjacency[i]))

    def degree(self, i: int) -> int:
        return int(self.degrees[i])


@dataclass(frozen=True)
class TopologyMatrices:
    """Source/destination, incidence, Laplacian, and degree matrices.

    All are agent-level (n x m or m x m); apply to d-dimensional states
    via the per-coordinate helpers instead of forming Kronecker blocks.
    """

    A_s: np.ndarray
    A_d: np.ndarray
    E_s: np.ndarray
    E_u: np.ndarray
    L_s: np.ndarray
    L_u: np.ndarray
    D: np.ndarray


@dataclass(frozen=True)
class SpectralConstants:
    sigma_max_Ls: float
    sigma_max_Lu: float
    sigma_min_Lu: float
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


def random_connected_graph(m: int, p: float, seed: int, max_redraws: int = 10_000) -> Graph:
    """Sample a connected Erdos-Renyi style graph, redrawing until connected.

    Each unordered pair is included independently with probability ``p``;
    if the draw is disconnected the whole graph is redrawn from the same
    stream.  Deterministic given (m, p, seed).
    """
    if m < 2:
        raise ValueError(f"need at least 2 agents, got m={m}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    src, dst = np.triu_indices(m, 1)  # the pairs (i, j), i < j, in lexicographic order
    rng = np.random.default_rng(seed)
    for _ in range(max_redraws):
        mask = rng.random(len(src)) < p
        adjacency = np.zeros((m, m))
        adjacency[src[mask], dst[mask]] = adjacency[dst[mask], src[mask]] = 1.0
        if _connected(adjacency):
            return Graph(m, zip(src[mask], dst[mask]))
    raise GraphGenerationError(
        f"no connected graph with m={m}, p={p} within {max_redraws} redraws"
    )


def build_matrices(g: Graph) -> TopologyMatrices:
    """Assemble dense agent-level matrices from the edge list.

    Row k of A_s has a one at the source of edge k; row k of A_d at its
    destination.  The signed/unsigned incidence matrices are their
    difference/sum, the Laplacians their Grams, and the degree matrix is
    the half-sum of the Laplacians.
    """
    n, m = g.n, g.m
    A_s = np.zeros((n, m))
    A_d = np.zeros((n, m))
    A_s[np.arange(n), g.src] = 1.0
    A_d[np.arange(n), g.dst] = 1.0
    E_s = A_s - A_d
    E_u = A_s + A_d
    L_s = E_s.T @ E_s
    L_u = E_u.T @ E_u
    D = 0.5 * (L_s + L_u)
    return TopologyMatrices(A_s=A_s, A_d=A_d, E_s=E_s, E_u=E_u, L_s=L_s, L_u=L_u, D=D)


def spectral_constants(tm: TopologyMatrices, leader: int, zero_tol: float = 1e-10) -> SpectralConstants:
    """Eigenvalue extremes of the Laplacians and of L_s + e_l e_l^T.

    The last constant is the smallest positive eigenvalue of C C^T where C
    stacks the signed incidence over the leader-selection row; positive
    eigenvalues below ``zero_tol`` times the largest are treated as zero.
    """
    m = tm.L_s.shape[0]
    if not (0 <= leader < m):
        raise ValueError(f"leader {leader} out of range for m={m}")
    eig_Ls = np.linalg.eigvalsh(tm.L_s)
    eig_Lu = np.linalg.eigvalsh(tm.L_u)
    gram = tm.L_s.copy()
    gram[leader, leader] += 1.0
    eig_C = np.linalg.eigvalsh(gram)
    cutoff = zero_tol * max(eig_C[-1], 1.0)
    positive = eig_C[eig_C > cutoff]
    return SpectralConstants(
        sigma_max_Ls=float(eig_Ls[-1]),
        sigma_max_Lu=float(eig_Lu[-1]),
        sigma_min_Lu=float(max(eig_Lu[0], 0.0)),
        sigma_min_plus_CCt=float(positive[0]),
        d_max=int(np.max(np.diag(tm.D))),
    )


# Per-coordinate actions of the block (Kronecker) matrices on (m, d) arrays.

def edge_differences(g: Graph, X: np.ndarray) -> np.ndarray:
    """Signed incidence applied to agent states: row k is x_src - x_dst."""
    return X[g.src] - X[g.dst]


def edge_sums(g: Graph, X: np.ndarray) -> np.ndarray:
    """Unsigned incidence applied to agent states: row k is x_src + x_dst."""
    return X[g.src] + X[g.dst]


# Edge-list text format: first line "m n", then n lines "i j" (1-based, i < j).

def write_edge_list(g: Graph, stream: TextIO) -> None:
    stream.write(f"{g.m} {g.n}\n")
    for i, j in g.edges:
        stream.write(f"{i + 1} {j + 1}\n")


def read_edge_list(stream: TextIO) -> Graph:
    header = stream.readline().split()
    if len(header) != 2:
        raise ValueError("expected header 'm n'")
    m, n = int(header[0]), int(header[1])
    edges = []
    for _ in range(n):
        parts = stream.readline().split()
        if len(parts) != 2:
            raise ValueError("expected edge line 'i j'")
        i, j = int(parts[0]), int(parts[1])
        if not (1 <= i < j <= m):
            raise ValueError(f"edge ({i}, {j}) violates 1 <= i < j <= m")
        edges.append((i - 1, j - 1))
    return Graph(m, edges)
