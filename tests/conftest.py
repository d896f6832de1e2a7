"""Shared helpers: random inputs and independent test-side oracles.

The oracles here are written from scratch against the definitions (index
summation, dense matrix algebra) so they do not share code paths with the
library implementations they check.
"""

import numpy as np

from stabdet import (
    GeneratorSet,
    Graph,
    LocalCliffordLayer,
    PauliOperator,
    RdmConstraintSet,
    canonical_generators,
    recombine_generators,
)
from stabdet.f2_pauli import f2_rank

# Single-qubit factors of the (u, v) encoding: I, X, Z, Y.
SINGLE_QUBIT = {
    (0, 0): np.array([[1, 0], [0, 1]], dtype=complex),
    (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 0): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def bit(x, j, n):
    """The bit of qubit j in an n-bit mask, qubit 0 the most significant."""
    return (x >> (n - 1 - j)) & 1


def pauli_factors(op):
    """The n x 2 x 2 array of a Pauli operator's single-qubit factors, phase left out."""
    return np.array([SINGLE_QUBIT[bit(op.u, j, op.n), bit(op.v, j, op.n)]
                     for j in range(op.n)]).reshape(op.n, 2, 2)


def kron_on(factors, qubits):
    """Kronecker product of the 2x2 factors at the given qubits, in order."""
    m = np.array([[1]], dtype=complex)
    for j in qubits:
        m = np.kron(m, factors[j])
    return m


def kron_dense(op):
    """Dense matrix of a Pauli operator as a Kronecker product of 2x2
    factors, qubit 0 leftmost, times its phase."""
    return op.phase * kron_on(pauli_factors(op), range(op.n))


def subgroup_sum_by_kron(gens, omega):
    """stabilizer_rdm by its definition, one element at a time: each product
    of a subset of the generators is multiplied out qubit by qubit as 2x2
    matrices; the products that are a multiple of I off omega add their
    Kronecker factors on omega, and the sum is divided by 2^|omega|."""
    n, omega = gens.n, sorted(omega)
    # elements[i, j], phases[i]: the factor on qubit j and the phase of the
    # product of the generators g at the set bits 2^g of i.
    elements = np.broadcast_to(np.eye(2, dtype=complex), (1, n, 2, 2))
    phases = np.ones(1, dtype=complex)
    for m in gens.generators:
        elements = np.concatenate((elements, elements @ pauli_factors(m)))
        phases = np.concatenate((phases, phases * m.phase))
    off = elements[:, [j for j in range(n) if j not in omega]]
    scalar_off = ~(off[..., 0, 1].any(1) | off[..., 1, 0].any(1)
                   | (off[..., 0, 0] != off[..., 1, 1]).any(1))
    dim = 1 << len(omega)
    total = np.zeros((dim, dim), dtype=complex)
    for i in np.flatnonzero(scalar_off):
        total += phases[i] * off[i, :, 0, 0].prod() * kron_on(elements[i], omega)
    return total / dim


def random_graph(n, rng):
    theta = np.zeros((n, n), dtype=np.uint8)
    for s in range(n):
        for t in range(s + 1, n):
            theta[s, t] = theta[t, s] = rng.integers(0, 2)
    return Graph(theta)


def edited(rdms, key, edit=None):
    """A new family like rdms, with a writable copy of the block on key
    passed to edit, which changes it in place; or, edit None, that block
    dropped.  A family is immutable, so this is how tests perturb one."""
    blocks = dict(rdms.constraints)
    if edit is None:
        del blocks[key]
    else:
        blocks[key] = blocks[key].copy()
        edit(blocks[key])
    return RdmConstraintSet(rdms.n, blocks)


def quadratic_form(g, x):
    """Sum over vertex pairs s < t of theta_st x_s x_t, mod 2."""
    x = np.array(x, dtype=np.uint8) % 2
    if x.shape != (g.n,):
        raise ValueError(f"bit vector length {x.shape} does not match n={g.n}")
    return int(x @ np.triu(g.theta, k=1) @ x) % 2


# Dense matrices of the gates a LocalCliffordLayer lists.
GATE_DENSE = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_unitary(layer):
    """Kronecker product over the qubits of each qubit's gate sequence,
    first gate acting first, qubit 0 leftmost."""
    m = np.array([[1]], dtype=complex)
    for seq in layer.gates:
        q = np.eye(2, dtype=complex)
        for gate in seq:
            q = GATE_DENSE[gate] @ q
        m = np.kron(m, q)
    return m


def random_invertible_f2(n, rng):
    while True:
        m = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
        if f2_rank(m) == n:
            return m


def random_local_clifford_layer(n, rng):
    gates = []
    for _ in range(n):
        k = rng.integers(0, 4)
        gates.append(tuple(rng.choice(["H", "S", "X", "Z"]) for _ in range(k)))
    return LocalCliffordLayer(tuple(gates))


def random_stabilizer_set(n, rng):
    """A random valid full generator set: random graph generators pushed
    through a random local Clifford layer, random sign flips, then a random
    invertible recombination."""
    gens = canonical_generators(random_graph(n, rng))
    layer = random_local_clifford_layer(n, rng)
    ops = []
    for m in gens.generators:
        m = layer.conjugate(m)
        if rng.integers(0, 2):
            m = PauliOperator((m.phase_exp + 2) % 4, m.u, m.v, n)
        ops.append(m)
    return recombine_generators(GeneratorSet(tuple(ops), n),
                                random_invertible_f2(n, rng))


def from_bits(bits):
    """The mask whose qubit j holds bits[j], qubit 0 the most significant."""
    return sum(int(b) << (len(bits) - 1 - j) for j, b in enumerate(bits))


def random_pauli(n, rng, real_phase=False):
    u = from_bits(rng.integers(0, 2, size=n))
    v = from_bits(rng.integers(0, 2, size=n))
    k = int(rng.integers(0, 2)) * 2 if real_phase else int(rng.integers(0, 4))
    return PauliOperator(k, u, v, n)


def ptrace_by_summation(rho, keep, n):
    """Partial trace by direct index summation, independent of the library."""
    keep = sorted(keep)
    other = [j for j in range(n) if j not in keep]
    d = 1 << len(keep)
    out = np.zeros((d, d), dtype=complex)

    def full_index(kept_bits, other_bits):
        bits = [0] * n
        for b, j in zip(kept_bits, keep):
            bits[j] = b
        for b, j in zip(other_bits, other):
            bits[j] = b
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return idx

    def bits_of(value, width):
        return [(value >> (width - 1 - k)) & 1 for k in range(width)]

    for i in range(d):
        for j in range(d):
            total = 0
            for e in range(1 << len(other)):
                eb = bits_of(e, len(other))
                total += rho[full_index(bits_of(i, len(keep)), eb),
                             full_index(bits_of(j, len(keep)), eb)]
            out[i, j] = total
    return out


def hermitian_basis(n):
    """Hilbert-Schmidt orthonormal basis of the real space of Hermitian
    2^n x 2^n matrices: diagonal units, symmetric and antisymmetric pairs."""
    dim = 1 << n
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i] = 1.0
        yield m
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = inv_sqrt2
            m[j, i] = inv_sqrt2
            yield m
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1j * inv_sqrt2
            m[j, i] = 1j * inv_sqrt2
            yield m


def group_key(ops):
    return frozenset(ops)
