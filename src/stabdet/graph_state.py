"""Graph states: adjacency matrices, canonical generators, the quadratic sign
form, explicit state vectors, and a local-Clifford reduction that brings an
arbitrary full stabilizer generator set into graph form."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .f2_pauli import (
    DENSE_VECTOR_CAP,
    PauliOperator,
    _pauli,
    _qubit_index,
    eliminate,
    pack_rows,
    row_product,
    unpack_rows,
)
from .stabilizer import GeneratorSet, _require_valid, read_count


class Graph:
    """A simple undirected graph stored as a symmetric loop-free bit matrix."""

    def __init__(self, adjacency):
        theta = np.array(adjacency)
        if not ((theta == 0) | (theta == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        theta = theta.astype(np.uint8)
        if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if not np.array_equal(theta, theta.T):
            raise ValueError("adjacency matrix must be symmetric")
        if np.any(np.diag(theta)):
            raise ValueError("self-loops are not allowed")
        self.theta = theta
        self.theta.setflags(write=False)

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def edges(self) -> list:
        return [(s, t) for s in range(self.n) for t in range(s + 1, self.n)
                if self.theta[s, t]]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable) -> "Graph":
        theta = np.zeros((n, n), dtype=np.uint8)
        for s, t in edges:
            s, t = _qubit_index(s), _qubit_index(t)
            if s == t:
                raise ValueError(f"self-loop on vertex {s}")
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"edge ({s}, {t}) out of range for {n} vertices")
            theta[s, t] = theta[t, s] = 1
        return cls(theta)

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(j, j + 1) for j in range(n - 1)])

    @classmethod
    def star(cls, n: int) -> "Graph":
        """Vertex 0 joined to every other vertex."""
        return cls.from_edges(n, [(0, j) for j in range(1, n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and np.array_equal(self.theta, other.theta)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges})"


def canonical_rows(g: Graph) -> list:
    """The canonical generators' rows: row s is (0, s's neighbours, s)."""
    return [(0, u, 1 << (g.n - 1 - s)) for s, u in enumerate(pack_rows(g.theta))]


def canonical_generators(g: Graph) -> GeneratorSet:
    """Generator s has X at vertex s, Z at its neighbours, identity elsewhere."""
    return GeneratorSet(tuple(_pauli(*row, g.n) for row in canonical_rows(g)), g.n)


def sign_vector(g: Graph) -> np.ndarray:
    """(-1)^{f(x)} for every basis index x, as a length-2^n array of +-1, by
    doubling over the vertices, last first: prepending vertex t multiplies the
    signs by (-1)^{x_s} for each neighbour s > t where x_t = 1."""
    popcount_signs = np.ones(1)  # (-1)^popcount(y) for y < 2^(n-1)
    for _ in range(g.n - 1):
        popcount_signs = np.concatenate((popcount_signs, -popcount_signs))
    suffixes, signs = np.arange(len(popcount_signs)), np.ones(1)
    for row in reversed(pack_rows(g.theta)):  # bits below len(signs): the later neighbours
        flips = popcount_signs.take(suffixes[:len(signs)] & row)
        signs = np.concatenate((signs, np.multiply(flips, signs, out=flips)))
    return signs


def state_vector(g: Graph, cap: int = DENSE_VECTOR_CAP) -> np.ndarray:
    """Amplitude at index x is (-1)^{f(x)} / sqrt(2^n); the amplitude at index
    0 is real positive by the formula itself."""
    if g.n > cap:
        raise ValueError(f"dense rendering cap exceeded: n={g.n} > {cap}")
    return sign_vector(g).astype(complex) / np.sqrt(1 << g.n)


# ---------------------------------------------------------------------------
# Local Clifford layers.
# ---------------------------------------------------------------------------

# Conjugation action U P U^dag of the single-qubit gates used by the
# reduction, applied on the qubits of a mask at once: (u, v, mask) to
# (u', v', sign mask), with sign (-1)^popcount(sign mask).
_GATE_ACTION = {
    "H": lambda u, v, m: (u ^ ((u ^ v) & m), v ^ ((u ^ v) & m), u & v & m),  # basis exchange
    "S": lambda u, v, m: (u ^ (v & m), v, u & v & m),                        # quarter phase
    "X": lambda u, v, m: (u, v, u & m),
    "Z": lambda u, v, m: (u, v, v & m),
}


def _conjugate(row: tuple, gate: str, mask: int) -> tuple:
    """Exact image U P U^dag of a row P for one single-qubit gate U on every qubit of mask."""
    if gate not in _GATE_ACTION:
        raise ValueError(f"unknown gate {gate!r}")
    k, u, v = row
    u, v, sign = _GATE_ACTION[gate](u, v, mask)
    return (k + 2 * sign.bit_count()) % 4, u, v


@dataclass(frozen=True)
class LocalCliffordLayer:
    """Per-qubit single-qubit Clifford gate sequences.

    ``gates[q]`` lists the gates applied to qubit q, first entry acting first;
    Pauli corrections (X, Z entries) carry the explicit sign bookkeeping.
    """

    gates: tuple

    @property
    def n(self) -> int:
        return len(self.gates)

    def conjugate(self, op: PauliOperator) -> PauliOperator:
        """Exact image U op U^dag under the layer."""
        if op.n != self.n:
            raise ValueError(f"size mismatch: {op.n} vs {self.n}")
        row = op.row
        for q, seq in enumerate(self.gates):
            for gate in seq:
                row = _conjugate(row, gate, 1 << (op.n - 1 - q))
        return _pauli(*row, op.n)

    @property
    def is_identity(self) -> bool:
        return all(len(seq) == 0 for seq in self.gates)


def lc_to_graph(gens: GeneratorSet) -> tuple:
    """Reduce a full stabilizer generator set to graph form.

    Returns (graph, layer) such that conjugating the input group by the layer
    gives exactly the graph state's stabilizer group, acting on the rows of
    ``gens.rows`` and checking them against the graph's canonical masks.  The
    z-rows are the products with no x-part.  Their z-parts commute
    with every generator, so they are orthogonal to every x-part, and there
    are n - rank of them: they span the kernel of the x-block.
    Basis-exchange gates on their pivot qubits P make the x-block invertible:
    the z-parts restricted to P form a triangular, invertible minor, so an
    element left with no x-part would have an x-part inside P orthogonal to
    the kernel, hence zero, and a kernel z-part zero on P, hence zero.  The
    reduced pivots of an x-part elimination from any generators of the group
    are then its recombination by the inverse of the x-block (x-part X_j for
    generator j); quarter-phase gates clear the diagonal of the z-block, and
    Pauli Z corrections absorb the -1 generator signs.
    """
    _require_valid(gens)
    if gens.l != gens.n:
        raise ValueError(f"need a full generating set: l={gens.l}, n={gens.n}")
    n, rows, masks = gens.n, [row for _, row in gens.rows], {}

    def apply(gate, mask):
        masks[gate] = mask
        return [_conjugate(row, gate, mask) for row in rows]

    rows = apply("H", sum(pivot for pivot, (_, _, v) in gens.rows if not v))
    pivots, _ = eliminate(rows, key=lambda r: r[2], combine=row_product, reduced=True)
    rows = [pivots[n - 1 - j] for j in range(n)]
    rows = apply("S", sum(u & v for _, u, v in rows))
    graph = Graph(unpack_rows([u for _, u, _ in rows], n).T)
    rows = apply("Z", sum(v for k, _, v in rows if k == 2))

    if rows != canonical_rows(graph):
        raise AssertionError("graph-form reduction failed to reach canonical form")
    return graph, LocalCliffordLayer(tuple(tuple(gate for gate in masks if masks[gate] >> q & 1)
                                           for q in range(n - 1, -1, -1)))


# ---------------------------------------------------------------------------
# Text format.
# ---------------------------------------------------------------------------

def parse_graph_file(text: str, cap: Optional[int] = None) -> Graph:
    """Line 1 is the vertex count, checked against cap before any allocation,
    then one 'u v' edge per line (0-based); no duplicate edges or self-loops."""
    n, rest = read_count(text, "graph", "vertex count")
    if cap is not None and n > cap:
        raise ValueError(f"dense rendering cap exceeded: n={n} > {cap}")
    theta = np.zeros((n, n), dtype=np.uint8)
    for i, ln in enumerate(rest, start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {i}: expected 'u v', got {ln!r}")
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {i}: expected integer endpoints, got {ln!r}") from None
        if s == t:
            raise ValueError(f"line {i}: self-loop on vertex {s}")
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"line {i}: edge ({s}, {t}) out of range for {n} vertices")
        if theta[s, t]:
            raise ValueError(f"line {i}: duplicate edge ({s}, {t})")
        theta[s, t] = theta[t, s] = 1
    return Graph(theta)


def format_graph_file(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{s} {t}" for s, t in g.edges)
    return "\n".join(lines) + "\n"
