"""Reference arithmetic the benchmark uses to make inputs and check outputs.

It is written independently of stabdet so that a check never reuses the code
path it checks.  A Pauli operator is a triple ``(x, z, k)`` meaning
i^k X^x Z^z, where ``x`` and ``z`` are bit masks with bit q for qubit q and
every qubit factor is ordered X before Z.  In the letter form that stabdet's
text files use, Y = i X Z, so a signed letter string with sign i^s has
k = s + popcount(x & z).

Basis indices follow stabdet's convention: qubit 0 is the most significant
bit of an index.
"""

from __future__ import annotations

import math
import random

import numpy as np

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_LETTER = {bits: ch for ch, bits in _LETTER_BITS.items()}

# Heisenberg images U P U^dag of the single-qubit letters: letter -> (sign, letter).
GATE_IMAGES = {
    "H": {"I": (1, "I"), "X": (1, "Z"), "Y": (-1, "Y"), "Z": (1, "X")},
    "S": {"I": (1, "I"), "X": (1, "Y"), "Y": (-1, "X"), "Z": (1, "Z")},
    "X": {"I": (1, "I"), "X": (1, "X"), "Y": (-1, "Y"), "Z": (-1, "Z")},
    "Z": {"I": (1, "I"), "X": (-1, "X"), "Y": (-1, "Y"), "Z": (1, "Z")},
}

# The six single-qubit Cliffords modulo Paulis, as gate sequences.
_LOCAL_CLIFFORDS = ((), ("H",), ("S",), ("H", "S"), ("S", "H"), ("H", "S", "H"))


def popcount(m: int) -> int:
    return bin(m).count("1")


# ---------------------------------------------------------------------------
# Paulis.
# ---------------------------------------------------------------------------

def multiply(a: tuple, b: tuple) -> tuple:
    """(i^a X^x1 Z^z1)(i^b X^x2 Z^z2) = i^(a+b) (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2)."""
    x1, z1, k1 = a
    x2, z2, k2 = b
    return x1 ^ x2, z1 ^ z2, (k1 + k2 + 2 * popcount(z1 & x2)) % 4


def product(ops) -> tuple:
    out = (0, 0, 0)
    for op in ops:
        out = multiply(out, op)
    return out


def from_letters(sign: int, letters: str) -> tuple:
    """Signed letter string (sign +1 or -1) to (x, z, k)."""
    x = z = 0
    for q, ch in enumerate(letters):
        bx, bz = _LETTER_BITS[ch]
        x |= bx << q
        z |= bz << q
    return x, z, ((0 if sign > 0 else 2) + popcount(x & z)) % 4


def to_letters(op: tuple, n: int) -> tuple:
    """(x, z, k) of a Hermitian operator to (sign, letter string)."""
    x, z, k = op
    s = (k - popcount(x & z)) % 4
    if s not in (0, 2):
        raise ValueError("operator is not Hermitian")
    letters = "".join(_BITS_LETTER[(x >> q) & 1, (z >> q) & 1] for q in range(n))
    return (1 if s == 0 else -1), letters


def conjugate_letters(sign: int, letters: str, gates) -> tuple:
    """Image of a signed letter string under per-qubit gate sequences
    (``gates[q]`` lists the gates on qubit q, first entry acting first)."""
    out = []
    for q, ch in enumerate(letters):
        for gate in gates[q]:
            s, ch = GATE_IMAGES[gate][ch]
            sign *= s
        out.append(ch)
    return sign, "".join(out)


def support_mask(op: tuple) -> int:
    return op[0] | op[1]


def mask_to_set(mask: int) -> frozenset:
    return frozenset(q for q in range(mask.bit_length()) if (mask >> q) & 1)


# ---------------------------------------------------------------------------
# Graphs and generator sets.
# ---------------------------------------------------------------------------

def random_graph(rng: random.Random, n: int, density: float) -> list:
    """Adjacency as one neighbour mask per vertex."""
    adj = [0] * n
    for s in range(n):
        for t in range(s + 1, n):
            if rng.random() < density:
                adj[s] |= 1 << t
                adj[t] |= 1 << s
    return adj


def graph_edges(adj: list) -> list:
    n = len(adj)
    return [(s, t) for s in range(n) for t in range(s + 1, n) if (adj[s] >> t) & 1]


def graph_file_text(adj: list) -> str:
    lines = [str(len(adj))] + [f"{s} {t}" for s, t in graph_edges(adj)]
    return "\n".join(lines) + "\n"


def graph_theta(adj: list) -> np.ndarray:
    n = len(adj)
    return np.array([[(adj[s] >> t) & 1 for t in range(n)] for s in range(n)],
                    dtype=np.uint8)


def graph_generators(adj: list) -> list:
    """K_s = X_s Z_{N(s)}: x = bit s, z = neighbours of s, phase +1."""
    return [(1 << s, adj[s], 0) for s in range(len(adj))]


def closed_neighbourhood(adj: list, s: int) -> frozenset:
    return mask_to_set(adj[s] | (1 << s))


def random_general_form(rng: random.Random, adj: list) -> tuple:
    """A random full generator set for a state local-Clifford equivalent to
    the graph state: local Cliffords, then random signs, then a random
    invertible GF(2) recombination.

    Returns (generators before recombination, generators after), both as
    (x, z, k) triples; the two sets generate the same group.
    """
    n = len(adj)
    gates = [rng.choice(_LOCAL_CLIFFORDS) for _ in range(n)]
    base = []
    for op in graph_generators(adj):
        sign, letters = conjugate_letters(*to_letters(op, n), gates)
        if rng.random() < 0.5:
            sign = -sign
        base.append(from_letters(sign, letters))
    # Invertible recombination: random row additions on a permuted identity,
    # applied as products of generators.
    combos = [1 << i for i in range(n)]
    rng.shuffle(combos)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        combos[i] ^= combos[j]
    mixed = [product(base[q] for q in range(n) if (c >> q) & 1) for c in combos]
    return base, mixed


def generator_file_text(gens: list, n: int) -> str:
    lines = [str(n)]
    for op in gens:
        sign, letters = to_letters(op, n)
        lines.append(("-" if sign < 0 else "") + letters)
    return "\n".join(lines) + "\n"


def in_graph_group(op: tuple, adj: list) -> bool:
    """True iff op (with its phase) is an element of the graph state's
    stabilizer group: the element with x-part x is the product of K_s over
    the set bits of x."""
    gens = graph_generators(adj)
    return product(gens[s] for s in range(len(adj)) if (op[0] >> s) & 1) == op


# ---------------------------------------------------------------------------
# Closed-form marginals and graph-state amplitudes.
# ---------------------------------------------------------------------------

def support_subgroup(gens: list, omega: frozenset, n: int) -> list:
    """Basis (as generator-combination masks) of S_omega, the group elements
    supported inside omega: the GF(2) kernel of the generators' bits on the
    qubits outside omega."""
    outside = ((1 << n) - 1) & ~sum(1 << q for q in omega)
    pivots = {}
    kernel = []
    for i, (x, z, _) in enumerate(gens):
        vec = (x & outside) | ((z & outside) << n)
        combo = 1 << i
        while vec:
            lead = vec.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (vec, combo)
                break
            pv, pc = pivots[lead]
            vec ^= pv
            combo ^= pc
        if not vec:
            kernel.append(combo)
    return kernel


def _local_masks(op: tuple, omega_sorted: list) -> tuple:
    m = len(omega_sorted)
    xl = zl = 0
    for a, q in enumerate(omega_sorted):
        bit = m - 1 - a
        xl |= ((op[0] >> q) & 1) << bit
        zl |= ((op[1] >> q) & 1) << bit
    return xl, zl


def marginal(gens: list, omega, n: int) -> tuple:
    """(rho_omega, k): 2^-|omega| times the sum of the restrictions of the
    2^k group elements supported in omega, each built by index arithmetic:
    (X^x Z^z)|r> = (-1)^{z.r} |r ^ x>."""
    omega_sorted = sorted(omega)
    m = len(omega_sorted)
    dim = 1 << m
    kernel = support_subgroup(gens, frozenset(omega_sorted), n)
    r = np.arange(dim)
    parity = np.array([popcount(v) % 2 for v in range(dim)])
    rho = np.zeros((dim, dim), dtype=complex)
    for sel in range(1 << len(kernel)):
        combo = 0
        for b, c in enumerate(kernel):
            if (sel >> b) & 1:
                combo ^= c
        op = product(gens[i] for i in range(len(gens)) if (combo >> i) & 1)
        xl, zl = _local_masks(op, omega_sorted)
        rho[r ^ xl, r] += (1j ** op[2]) * (1 - 2 * parity[zl & r])
    return rho / dim, len(kernel)


def graph_state_vector(adj: list) -> np.ndarray:
    """Amplitude (-1)^{f(x)} / sqrt(2^n) with f(x) = sum over edges of x_s x_t."""
    n = len(adj)
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))) & 1
    f = np.zeros(1 << n, dtype=np.int64)
    for s, t in graph_edges(adj):
        f += bits[:, s] & bits[:, t]
    return (1 - 2 * (f % 2)) / math.sqrt(1 << n)


def format_matrix(rho: np.ndarray) -> str:
    """stabdet's density-matrix text: 'dim=<d>' then rows of 're+imj'."""
    lines = [f"dim={rho.shape[0]}"]
    for row in rho:
        lines.append(" ".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix(lines: list) -> np.ndarray:
    dim = int(lines[0].strip()[4:])
    return np.array([[complex(t) for t in ln.split()] for ln in lines[1:dim + 1]])


def rdm_family_text(blocks: dict) -> str:
    parts = []
    for omega in sorted(blocks, key=lambda w: (len(w), sorted(w))):
        parts.append("omega: " + ",".join(map(str, sorted(omega))) + "\n"
                     + format_matrix(blocks[omega]))
    return "\n".join(parts)


def is_projector_rdm(rho: np.ndarray, tol: float = 1e-9) -> str:
    """Empty string if rho is Hermitian, has trace 1 and is a scaled projector
    (rho^2 = tr(rho^2) rho); otherwise what failed."""
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        return "not Hermitian"
    if abs(np.trace(rho) - 1) > tol:
        return "trace is not 1"
    sq = rho @ rho
    if np.max(np.abs(sq - np.trace(sq) * rho)) > tol:
        return "not a scaled projector"
    return ""
