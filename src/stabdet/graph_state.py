"""Graph states: adjacency matrices, canonical generators, the quadratic sign
form, explicit state vectors, and a local-Clifford reduction that brings an
arbitrary full stabilizer generator set into graph form."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .f2_pauli import (
    DENSE_VECTOR_CAP,
    PauliOperator,
    f2_inverse,
    f2_null_space,
    f2_rank,
    identity,
    multiply,
)
from .stabilizer import GeneratorSet, _require_valid, recombine_generators


class Graph:
    """A simple undirected graph stored as a symmetric loop-free bit matrix."""

    def __init__(self, adjacency):
        theta = np.array(adjacency, dtype=np.uint8) % 2
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
    def star(cls, n: int, center: int = 0) -> "Graph":
        return cls.from_edges(n, [(center, j) for j in range(n) if j != center])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and np.array_equal(self.theta, other.theta)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges})"


def canonical_generators(g: Graph) -> GeneratorSet:
    """Generator s has X at vertex s, Z at its neighbours, identity elsewhere."""
    gens = []
    for s in range(g.n):
        u = tuple(int(g.theta[s, t]) for t in range(g.n))
        v = tuple(1 if t == s else 0 for t in range(g.n))
        gens.append(PauliOperator(0, u, v))
    return GeneratorSet(tuple(gens), g.n)


def quadratic_form(g: Graph, x: Sequence[int]) -> int:
    """Sum over vertex pairs s < t of theta_st x_s x_t, mod 2."""
    x = np.array(x, dtype=np.uint8) % 2
    if x.shape != (g.n,):
        raise ValueError(f"bit vector length {x.shape} does not match n={g.n}")
    upper = np.triu(g.theta, k=1)
    return int(x @ upper @ x) % 2


def _index_bits(index: int, n: int) -> tuple:
    """Bits of a basis index, qubit 0 as the most significant bit."""
    return tuple((index >> (n - 1 - j)) & 1 for j in range(n))


def sign_vector(g: Graph) -> np.ndarray:
    """(-1)^{f(x)} for every basis index x, as a length-2^n array of +-1."""
    return np.array([1 - 2 * quadratic_form(g, _index_bits(i, g.n))
                     for i in range(1 << g.n)], dtype=float)


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
# reduction, on a per-qubit (u, v) pair with a sign factor:
#   H (basis exchange): (u, v) -> (v, u),      sign (-1)^{uv}
#   S (quarter phase):  (u, v) -> (u^v, v),    sign (-1)^{uv}
#   X:                  unchanged,             sign (-1)^u
#   Z:                  unchanged,             sign (-1)^v
_GATE_DENSE = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _conjugate_bit_pair(gate: str, u: int, v: int) -> tuple:
    """Return (u', v', extra_phase_exp) for one qubit under one gate."""
    if gate == "H":
        return v, u, 2 * (u & v)
    if gate == "S":
        return u ^ v, v, 2 * (u & v)
    if gate == "X":
        return u, v, 2 * u
    if gate == "Z":
        return u, v, 2 * v
    raise ValueError(f"unknown gate {gate!r}")


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
        u, v = list(op.u), list(op.v)
        k = op.phase_exp
        for q, seq in enumerate(self.gates):
            for gate in seq:
                u[q], v[q], extra = _conjugate_bit_pair(gate, u[q], v[q])
                k = (k + extra) % 4
        return PauliOperator(k, tuple(u), tuple(v))

    def qubit_unitary(self, q: int) -> np.ndarray:
        m = np.eye(2, dtype=complex)
        for gate in self.gates[q]:
            m = _GATE_DENSE[gate] @ m
        return m

    def dense_unitary(self) -> np.ndarray:
        m = np.array([[1]], dtype=complex)
        for q in range(self.n):
            m = np.kron(m, self.qubit_unitary(q))
        return m

    @property
    def is_identity(self) -> bool:
        return all(len(seq) == 0 for seq in self.gates)


def lc_to_graph(gens: GeneratorSet) -> tuple:
    """Reduce a full stabilizer generator set to graph form.

    Returns (graph, layer) such that conjugating the input group by the layer
    gives exactly the graph state's stabilizer group.  The procedure repairs
    the rank of the x-block with basis-exchange gates (chosen at the lowest
    support index of a pure-z group combination, which provably raises the
    rank), recombines by the inverse of the x-block, clears the diagonal with
    quarter-phase gates, and absorbs generator signs into Pauli corrections.
    """
    _require_valid(gens)
    if gens.l != gens.n:
        raise ValueError(f"need a full generating set: l={gens.l}, n={gens.n}")
    n = gens.n
    gate_lists = [[] for _ in range(n)]
    ops = list(gens.generators)

    def apply_gate(q, gate):
        gate_lists[q].append(gate)
        for k, op in enumerate(ops):
            u, v = list(op.u), list(op.v)
            u[q], v[q], extra = _conjugate_bit_pair(gate, u[q], v[q])
            ops[k] = PauliOperator((op.phase_exp + extra) % 4, tuple(u), tuple(v))

    def x_block():
        return np.array([[op.v[j] for op in ops] for j in range(n)], dtype=np.uint8)

    while True:
        sx = x_block()
        kernel = f2_null_space(sx)
        if not kernel:
            break
        combo = identity(n)
        for c in range(n):
            if kernel[0][c]:
                combo = multiply(combo, ops[c])
        j = combo.u.index(1)  # nonzero by generator independence
        apply_gate(j, "H")

    r = f2_inverse(x_block())
    ops = list(recombine_generators(GeneratorSet(tuple(ops), n), r).generators)

    for j in range(n):
        if ops[j].u[j]:
            apply_gate(j, "S")

    theta = np.array([[op.u[j] for op in ops] for j in range(n)], dtype=np.uint8)
    graph = Graph(theta)

    for s in range(n):
        if ops[s].phase_exp == 2:
            apply_gate(s, "Z")
        elif ops[s].phase_exp in (1, 3):
            raise AssertionError("reduced generator acquired an imaginary phase")

    expected = canonical_generators(graph).generators
    if tuple(ops) != expected:
        raise AssertionError("graph-form reduction failed to reach canonical form")
    return graph, LocalCliffordLayer(tuple(tuple(seq) for seq in gate_lists))


# ---------------------------------------------------------------------------
# Text format.
# ---------------------------------------------------------------------------

def parse_graph_file(text: str) -> Graph:
    """Line 1 is the vertex count, then one 'u v' edge per line (0-based);
    duplicate edges and self-loops are rejected."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"line 1: expected vertex count, got {lines[0]!r}") from None
    theta = np.zeros((n, n), dtype=np.uint8)
    for i, ln in enumerate(lines[1:], start=2):
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
