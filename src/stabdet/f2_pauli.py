"""Pauli operators as bit masks, plus GF(2) linear algebra on int rows.

An n-qubit Pauli operator is a phase (one of 1, i, -1, -i, stored exactly as
an exponent of i) together with two n-bit masks ``u`` (z-part) and ``v``
(x-part), held as Python ints.  Per qubit the encoding is

    (0, 0) -> I,   (0, 1) -> X,   (1, 0) -> Z,   (1, 1) -> Y.

Qubit j sits at bit n-1-j, so qubit 0 is the most significant bit, exactly as
in a computational-basis index: the bit string (x_0, ..., x_{n-1}) names
basis state sum(x_j << (n-1-j)), and ``op.v`` is the basis-index translation
of the operator.  Products and commutation are popcounts of these masks (the
packing of Aaronson & Gottesman 2004, quant-ph/0406196).

``PauliOperator`` is the public boundary; inside the library a tableau row is
the bare ``(phase_exp, u, v)`` triple, combined by ``row_product``.

GF(2) matrices are lists of int rows with column c of a w-column matrix at
bit w-1-c; ``f2_rank`` accepts a numpy 0/1 array and converts at that
boundary only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

# Caps (in qubits, or generators for ENUMERATION_CAP) and tolerances.
DENSE_VECTOR_CAP = 12         # 2^n vectors
DENSE_MATRIX_CAP = 10         # 2^n x 2^n matrices
ENUMERATION_CAP = 20          # enumerate_group lists 2^l elements
KERNEL_CAP = 6                # rdm_kernel returns up to 4^n matrices
STATE_ENUMERATION_CAP = 3     # enumerate_stabilizer_states is exhaustive

DEFAULT_TOL = 1e-9            # constraint checks in the forcing chains
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-9

PHASES = (1, 1j, -1, -1j)  # i**k for k = 0..3
_PHASE_VALUES = np.array(PHASES) + 0  # + 0: no -0.0 parts

_TO_U, _TO_V = str.maketrans("IXZY", "0011"), str.maketrans("IXZY", "0101")
_INVALID = str.maketrans("", "", "IXZY")  # keeps only the characters that are not Paulis


@dataclass(frozen=True)
class PauliOperator:
    """A phased n-qubit Pauli operator.

    ``phase_exp`` is the exponent k of the overall phase i^k; ``u`` and ``v``
    are the z-part and x-part masks, qubit j at bit n-1-j.
    """

    phase_exp: int
    u: int
    v: int
    n: int

    def __post_init__(self):
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError("phase exponent must be 0..3")
        if not (0 <= self.u < 1 << self.n and 0 <= self.v < 1 << self.n):
            raise ValueError(f"z-part and x-part must be {self.n}-bit masks")

    @property
    def phase(self) -> complex:
        return PHASES[self.phase_exp]

    @property
    def row(self) -> tuple:
        """The (phase_exp, u, v) triple of the operator."""
        return self.phase_exp, self.u, self.v

    @property
    def is_hermitian(self) -> bool:
        # Tensor products of I, X, Y, Z are Hermitian; only the phase matters.
        return self.phase_exp in (0, 2)

    def __str__(self) -> str:
        return format_pauli(self)


def _pauli(phase_exp: int, u: int, v: int, n: int) -> PauliOperator:
    """PauliOperator without ``__post_init__``'s checks, for fields in range by construction."""
    op = object.__new__(PauliOperator)  # set as the frozen __init__ does: keeps reads fast
    object.__setattr__(op, "phase_exp", phase_exp)
    object.__setattr__(op, "u", u)
    object.__setattr__(op, "v", v)
    object.__setattr__(op, "n", n)
    return op


def gather_bits(x: int, positions: Iterable[int], n: int) -> int:
    """The bits of an n-bit mask at the given qubit positions, packed in the
    order given (first position most significant)."""
    out = 0
    for j in positions:
        out = (out << 1) | ((x >> (n - 1 - j)) & 1)
    return out


def set_positions(x: int, n: int) -> list:
    """Ascending qubit (or row) indices whose bit is set in an n-bit mask."""
    out = []
    while x:
        h = x.bit_length() - 1
        out.append(n - 1 - h)
        x ^= 1 << h
    return out


def row_product(a: tuple, b: tuple) -> tuple:
    """Exact product of two (phase_exp, u, v) rows.

    With each operator written as i^{k + |u&v|} X^v Z^u, moving Z^{u_a} past
    X^{v_b} costs (-1)^{|u_a & v_b|}.
    """
    (ka, ua, va), (kb, ub, vb) = a, b
    u, v = ua ^ ub, va ^ vb
    return ((ka + kb + (ua & va).bit_count() + (ub & vb).bit_count()
             + 2 * (ua & vb).bit_count() - (u & v).bit_count()) % 4, u, v)


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Exact product of two Pauli operators of equal size."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return _pauli(*row_product(a.row, b.row), a.n)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff the symplectic inner product u_a.v_b + v_a.u_b vanishes mod 2."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return ((a.u & b.v) ^ (a.v & b.u)).bit_count() % 2 == 0


def support(op: PauliOperator) -> frozenset:
    """Qubit indices where the operator acts non-trivially (0-based)."""
    return frozenset(set_positions(op.u | op.v, op.n))


def _qubit_index(j) -> int:
    try:
        return operator.index(j)
    except TypeError:
        raise ValueError(f"qubit index {j!r} is not an integer") from None


def index_set(omega: Iterable[int], n: int) -> frozenset:
    """omega as a frozenset of qubit indices, required integers (numpy ones
    too), non-empty and in range."""
    omega = frozenset(map(_qubit_index, omega))
    if not omega:
        raise ValueError("empty index set")
    if min(omega) < 0 or max(omega) >= n:
        raise ValueError(f"index out of range for {n} qubits: {sorted(omega)}")
    return omega


@cache
def _sign_exponents(n: int) -> np.ndarray:
    """Twice the popcount parity of each n-bit index, the exponent of i in
    its sign (-1)^{|r|}: read-only, built once per n."""
    signs = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        signs = np.concatenate((signs, signs ^ 2))
    signs.setflags(write=False)
    return signs


def row_entries(ops: Sequence[tuple], n: int) -> tuple:
    """(columns, values) of the one nonzero entry in each row of the dense
    matrices of one or more n-qubit (phase_exp, u, v) rows, one array row per
    operator: row r of an operator holds i^{k - |u&v|} (-1)^{|u&r|} at column
    r ^ v, the parity of u & r read from a table."""
    return _phased_entries([(k - (u & v).bit_count(), u, v) for k, u, v in ops], n)


def _phased_entries(ops: Sequence[tuple], n: int, phases: np.ndarray = _PHASE_VALUES) -> tuple:
    """``row_entries`` of operators given as (c, u, v), the operator
    i^c Z^u X^v: row r holds phases[(c + 2 |u&r|) mod 4] at column r ^ v."""
    rows = np.arange(1 << n, dtype=np.int64)
    c, u, v = np.array(ops, dtype=np.int64).T[:, :, None]
    # The entry is i^(c + 2 parity); in place, so no third (ops, 2^n) array is made.
    exps = _sign_exponents(n).take(rows & u)
    exps += c
    return rows ^ v, phases.take(exps, mode="wrap")


def dense_matrix(op: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n complex matrix of the operator."""
    if op.n > DENSE_MATRIX_CAP:
        raise ValueError(f"dense rendering cap exceeded: n={op.n} > {DENSE_MATRIX_CAP}")
    (cols,), (values,) = row_entries([op.row], op.n)
    m = np.zeros((len(cols), len(cols)), dtype=complex)
    m[np.arange(len(cols)), cols] = values
    return m


def parse_pauli(text: str) -> PauliOperator:
    """Parse the text form: optional '+'/'-' sign then characters from I, X, Y, Z."""
    s = text.strip()
    phase_exp = 0
    if s.startswith("+"):
        s = s[1:]
    elif s.startswith("-"):
        phase_exp = 2
        s = s[1:]
    if not s:
        raise ValueError(f"empty Pauli string in {text!r}")
    bad = s.translate(_INVALID)
    if bad:
        raise ValueError(f"invalid Pauli character {bad[0]!r} in {text!r}")
    return _pauli(phase_exp, int(s.translate(_TO_U), 2), int(s.translate(_TO_V), 2), len(s))


def format_pauli(op: PauliOperator) -> str:
    """Inverse of parse_pauli; imaginary phases are not expressible."""
    if op.phase_exp in (1, 3):
        raise ValueError("imaginary phase has no text form")
    sign = "-" if op.phase_exp == 2 else ""
    return sign + "".join("IXZY"[2 * (op.u >> h & 1) + (op.v >> h & 1)]
                          for h in reversed(range(op.n)))


# ---------------------------------------------------------------------------
# GF(2) linear algebra on int rows.
# ---------------------------------------------------------------------------

def eliminate(rows: Iterable, key=lambda row: row, combine=operator.xor,
              reduced: bool = False) -> tuple:
    """Gaussian elimination over GF(2), one row at a time.

    ``key`` maps a row to its int mask and ``combine`` adds two rows, XORing
    their masks: rows are masks by default, (phase_exp, u, v) rows under
    ``row_product`` work too.  Returns (pivots, dependent): the row leading at
    each pivot bit, and in input order the rows the earlier pivots cleared.
    With ``reduced`` the pivots form the unique reduced row echelon form.
    """
    pivots, dependent = {}, []
    for row in rows:
        k = key(row)
        while k:
            h = k.bit_length() - 1
            if h not in pivots:
                pivots[h] = row
                break
            row = combine(row, pivots[h])
            k = key(row)
        else:
            dependent.append(row)
    if reduced:
        below = 0
        for h in sorted(pivots):
            row = pivots[h]
            k = key(row) & below
            while k:
                row = combine(row, pivots[k.bit_length() - 1])
                k = key(row) & below
            pivots[h] = row
            below |= 1 << h
    return pivots, dependent


def pack_rows(a: np.ndarray) -> list:
    """Rows of a 2-d 0/1 uint8 array as ints, column c at bit cols-1-c."""
    cols = a.shape[1]
    packed = np.packbits(a, axis=1)
    pad = 8 * packed.shape[1] - cols
    return [int.from_bytes(row.tobytes(), "big") >> pad for row in packed]


def unpack_rows(rows: Sequence[int], cols: int) -> np.ndarray:
    """Inverse of pack_rows: a len(rows) x cols uint8 array."""
    nbytes = (cols + 7) // 8
    pad = 8 * nbytes - cols
    buf = b"".join((r << pad).to_bytes(nbytes, "big") for r in rows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=cols)


def f2_rank(m) -> int:
    """Rank over GF(2) via Gaussian elimination."""
    a = np.array(m, dtype=np.uint8) % 2
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return len(eliminate(pack_rows(a))[0])
