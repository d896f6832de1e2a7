"""Stabilizer formalisms: validation, group enumeration, closed-form density
matrices and reduced density matrices, generator recombination, and minimal
support sets.

A set of l <= n pairwise commuting, independent, Hermitian Pauli operators
generates an Abelian group of 2^l elements that never contains minus the
identity: independence means only the trivial exponent vector reproduces the
identity binary part, and that product is +I because all phases are real and
the factors commute.  ``validate`` asserts exactly those three conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from .f2_pauli import (
    DENSE_MATRIX_CAP,
    ENUMERATION_CAP,
    HERMITICITY_TOL,
    PSD_TOL,
    STATE_ENUMERATION_CAP,
    TRACE_TOL,
    _PHASE_VALUES,
    PauliOperator,
    _pauli,
    _phased_entries,
    commutes,
    eliminate,
    format_pauli,
    gather_bits,
    index_set,
    pack_rows,
    parse_pauli,
    row_entries,
    row_product,
    set_positions,
    unpack_rows,
)


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered tuple of Pauli operators on a common qubit count."""

    generators: tuple
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"qubit count must be non-negative, got {self.n}")
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("all generators must act on the same qubit count")

    @property
    def l(self) -> int:
        return len(self.generators)

    @cached_property
    def validation(self) -> "ValidationReport":
        """``validate(self)``, computed once: the instance is frozen."""
        return validate(self)

    @cached_property
    def rows(self) -> tuple:
        """``_pivoted_form(self)``, built once, valid set or not."""
        return _pivoted_form(self)

    @cached_property
    def pivots(self) -> dict:
        """Qubit j -> the mask of the positions in ``rows`` of the rows
        pivoting on j, at most two: bit i for position i."""
        n, index = self.n, {}
        for i, (pivot, _) in enumerate(self.rows):
            j = n - pivot.bit_length()
            index[j] = index.get(j, 0) | 1 << i
        return index

    @cached_property
    def sums(self) -> dict:
        """The S_omega sums rendered so far, keyed by frozenset omega: each
        rendered once by ``_subgroup_sum`` and kept read-only."""
        return {}

    @classmethod
    def from_strings(cls, n: int, strings: Iterable[str]) -> "GeneratorSet":
        gens = tuple(parse_pauli(s) for s in strings)
        return cls(gens, n)


@dataclass(frozen=True)
class ValidationReport:
    commuting: bool
    independent: bool
    hermitian: bool
    problems: tuple = ()

    @property
    def ok(self) -> bool:
        return self.commuting and self.independent and self.hermitian


def generator_matrix(gens: GeneratorSet) -> np.ndarray:
    """2n x l binary matrix; column s is (u_s, v_s) stacked, z-block on top."""
    return unpack_rows([(g.u << gens.n) | g.v for g in gens.generators], 2 * gens.n).T


def validate(gens: GeneratorSet) -> ValidationReport:
    """Check commutativity, GF(2) independence and Hermiticity of a generator
    set, once per set: the report is cached as ``gens.validation``."""
    if "validation" in vars(gens):
        return gens.validation
    ops, l = gens.generators, gens.l
    imaginary = [f"generator {s} has an imaginary phase"
                 for s, g in enumerate(ops) if not g.is_hermitian]
    anticommuting = [f"generators {s} and {t} anticommute" for s in range(l)
                     for t in range(s + 1, l) if not commutes(ops[s], ops[t])]
    dependent = ["binary parts are linearly dependent over GF(2)"] * (len(gens.rows) < l)
    return vars(gens).setdefault("validation", ValidationReport(
        not anticommuting, not dependent, not imaginary,
        tuple(imaginary + anticommuting + dependent)))


def _require_valid(gens: GeneratorSet):
    report = gens.validation
    if not report.ok:
        raise ValueError("invalid generator set: " + "; ".join(report.problems))


def _pivoted_form(gens: GeneratorSet) -> tuple:
    """(pivot, row) pairs generating the group, each (phase_exp, u, v) row
    owning its pivot: a one-qubit mask set in its x-part (its z-part if it
    has no x-part) and clear in that part of every other row.  The rows are
    the reduced echelon form, by row products of the generators, with the
    x-part on top: the x-parts reduced, then the z-parts of the x-free rows,
    clearing the x-rows there.  A dependent generator leaves no row."""
    n = gens.n
    rows, _ = eliminate((g.row for g in gens.generators), key=lambda r: (r[2] << n) | r[1],
                        combine=row_product, reduced=True)
    return tuple((1 << (h % n), row) for h, row in rows.items())


def enumerate_group(gens: GeneratorSet) -> list:
    """All 2^l products of the generators, phases exact; element i is the
    product of the generators j at the set bits 2^j of i."""
    _require_valid(gens)
    return [_pauli((c + (u & v).bit_count()) & 3, u, v, gens.n)
            for c, u, v in _products([g.row for g in gens.generators])]


def density_matrix(gens: GeneratorSet, cap: int = DENSE_MATRIX_CAP) -> np.ndarray:
    """2^{-n} times the sum of all group elements.

    For l = n this is the rank-1 projector onto the stabilizer state; for
    l < n it is the maximally mixed state on the joint +1 eigenspace, of rank
    2^{n-l}.  The set keeps the matrix: every call returns the same read-only
    array, the one ``stabilizer_rdm`` gives on all n qubits, so a caller that
    edits it edits a ``.copy()``.
    """
    if gens.n > cap:
        raise ValueError(f"dense rendering cap exceeded: n={gens.n} > {cap}")
    return _subgroup_sum(gens, frozenset(range(gens.n)))


def stabilizer_rdm(gens: GeneratorSet, omega: Iterable[int],
                   cap: int = DENSE_MATRIX_CAP) -> np.ndarray:
    """Reduced density matrix on omega: 2^{-|omega|} times the sum of the
    restrictions of all group elements supported inside omega.

    Those elements form the subgroup S_omega, whose k <= |omega| generators
    come from GF(2) elimination on the at most 2|omega| rows of ``gens.rows``
    pivoting in omega: poly(|omega|) + 2^k 4^{|omega|} once the form is built.
    The set keeps the matrix: every call on the same qubits returns the same
    read-only array, so a caller that edits it edits a ``.copy()``.  The cap
    applies to every call, kept matrix or not.
    """
    omega = index_set(omega, gens.n)
    if len(omega) > cap:
        raise ValueError(f"dense rendering cap exceeded: |omega|={len(omega)} > {cap}")
    return _subgroup_sum(gens, omega)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _subgroup_sum(gens: GeneratorSet, omega: frozenset) -> np.ndarray:
    """2^{-|omega|} times the sum over S_omega of the restrictions to omega,
    read-only: ``_render_sum``'s, taken once per (set, omega) and kept in
    ``gens.sums``.  A render that raises keeps nothing."""
    sums = gens.sums
    rho = sums.get(omega)
    if rho is None:
        rho = sums[omega] = _read_only(_render_sum(gens, omega))
    return rho


# Entries per numpy pass of _render_sum: bounds its temporaries to well
# under a MiB, beside the 16 * 4^|omega| bytes of the result.
_SUM_BLOCK = 1 << 14


def _render_sum(gens: GeneratorSet, omega: frozenset) -> np.ndarray:
    """2^{-|omega|} times the sum over S_omega of the restrictions to omega.

    Everything before the sum acts on (phase_exp, u, v) rows.  An element of
    S_omega is a product of the rows of ``gens.rows`` that pivot in omega, at
    most 2|omega|, read through ``gens.pivots`` in their order there, so
    eliminating their bits outside omega by row products leaves a basis of
    S_omega, restricted to omega by gathering its bits.
    Eliminating the x-parts of that basis in turn splits it into shifts, with
    independent x-parts, and diagonal elements z, so the sum is
    sum_a a prod_z (I + z) over the products a of the shifts, composed on
    ints by ``_products``.  Distinct a have distinct x-parts, so each fills
    its own entries rho[r, r ^ v_a] = a[r, r ^ v_a] d[r ^ v_a] / 2^{|omega|},
    d being the diagonal of prod_z (I + z), passed over only if there is a z,
    and 2^{-|omega|} folded into the phase table; every value is a power of
    two times 1, i, -1 or -i, so the sum is exact.
    """
    _require_valid(gens)
    n, m, idx = gens.n, len(omega), sorted(omega)
    outside = ((1 << n) - 1) ^ sum(1 << (n - 1 - j) for j in omega)
    pivots, at, pivoting = gens.pivots, 0, []
    for j in omega:
        at |= pivots.get(j, 0)
    while at:  # the rows at the set bits of at, lowest position first
        low = at & -at
        pivoting.append(gens.rows[low.bit_length() - 1][1])
        at ^= low
    _, members = eliminate(pivoting, combine=row_product,
                           key=lambda r: ((r[1] & outside) << n) | (r[2] & outside))
    basis = [(k, gather_bits(u, idx, n), gather_bits(v, idx, n)) for k, u, v in members]
    shifts, diagonal = eliminate(basis, combine=row_product, key=lambda r: r[2])
    elements = _products(list(shifts.values()))
    dim = 1 << m
    phases = _PHASE_VALUES / dim
    if diagonal:  # row r of each z holds +-1 at column r
        d = np.prod(1 + row_entries(diagonal, m)[1].real, axis=0)
    rows = np.arange(dim)
    rho = np.zeros((dim, dim), dtype=complex)
    block = max(1, _SUM_BLOCK // dim)
    for start in range(0, len(elements), block):
        cols, values = _phased_entries(elements[start:start + block], m, phases)
        if diagonal:
            values *= d  # a d = d a, so row r's entry takes d[r]
            values += 0  # turns the -0.0 parts of products into +0.0, as a sum would
        rho[rows, cols] = values
    return rho


def _products(rows: Sequence[tuple]) -> list:
    """The 2^l products of (phase_exp, u, v) rows as (c, u, v), the operator
    i^c Z^u X^v, c = k - |u&v| as in ``row_entries``: element i multiplies,
    in order, the rows j at the set bits 2^j of i.  Moving X^{v_a} past
    Z^{u_b} gives c_ab = c_a + c_b + 2 |u_b & v_a|, on ints alone."""
    if len(rows) > ENUMERATION_CAP:
        raise ValueError(f"enumeration cap exceeded: l={len(rows)} > {ENUMERATION_CAP}")
    out = [(0, 0, 0)]
    for k, u, v in rows:
        c = k - (u & v).bit_count()
        out += [((ca + c + 2 * (u & va).bit_count()) & 3, ua ^ u, va ^ v) for ca, ua, va in out]
    return out


def recombine_generators(gens: GeneratorSet, r_matrix) -> GeneratorSet:
    """New generator j is the product over i of gens[i]**R[i][j].

    R must be an invertible l x l matrix over GF(2); the recombined set
    generates the same group.
    """
    _require_valid(gens)
    r = np.array(r_matrix, dtype=np.uint8) % 2
    l = gens.l
    if r.shape != (l, l):
        raise ValueError(f"recombination matrix must be {l}x{l}")
    columns = pack_rows(r.T)
    if len(eliminate(columns)[0]) != l:
        raise ValueError("recombination matrix is singular over GF(2)")
    rows = [g.row for g in gens.generators]
    return GeneratorSet(tuple(_pauli(*product(rows, c), gens.n) for c in columns), gens.n)


def product(rows: Sequence[tuple], mask: int) -> tuple:
    """Product of the (phase_exp, u, v) rows whose index i is set in mask
    (bit len(rows)-1-i); (0, 0, 0) for the empty mask."""
    return reduce(row_product, (rows[i] for i in set_positions(mask, len(rows))), (0, 0, 0))


def minimal_support_set(gens: GeneratorSet) -> set:
    """Supports of the generators retained after dropping dominated ones.

    A support is dropped when it is a strict subset of another generator's
    support, compared as u | v masks; equal supports are kept once.
    """
    masks = {g.u | g.v for g in gens.generators}
    dominated = {s for s in masks for other in masks if s | other == other != s}
    return {frozenset(set_positions(s, gens.n)) for s in masks - dominated}


def _all_nontrivial_paulis(n: int) -> list:
    """All 4^n - 1 unsigned non-identity Pauli binary parts on n qubits, in
    the order of a code whose bits 2j and 2j+1 are u_j and v_j."""
    z, x = range(2 * n - 1, 0, -2), range(2 * n - 2, -1, -2)
    return [PauliOperator(0, gather_bits(code, z, 2 * n), gather_bits(code, x, 2 * n), n)
            for code in range(1, 1 << (2 * n))]


def enumerate_stabilizer_states(n: int) -> list:
    """Every distinct pure n-qubit stabilizer state as a dense projector.

    Enumerates all maximal commuting independent unsigned generator tuples,
    deduplicates by group span, then attaches every sign pattern: each
    (span, sign pattern) is a distinct state.  A span's 2^n elements are
    rendered once, element c the product of the generators i at bit i of c;
    under sign pattern s (bit i: generator i takes the sign -1) element c
    takes the sign (-1)^{|s & c|}, so the 2^n projectors are the Hadamard
    transform of the elements over 2^n, exact.
    """
    if n > STATE_ENUMERATION_CAP:
        raise ValueError(f"exhaustive enumeration is capped at n = {STATE_ENUMERATION_CAP}")
    candidates = _all_nontrivial_paulis(n)

    spans_seen = set()
    generator_tuples = []

    def extend(chosen, start):
        if chosen.l == n:
            key = frozenset(row[1:] for _, row in chosen.rows)  # the reduced form names the span
            if key not in spans_seen:
                spans_seen.add(key)
                generator_tuples.append(chosen.generators)
            return
        for k in range(start, len(candidates)):
            if all(commutes(candidates[k], c) for c in chosen.generators):
                wider = GeneratorSet(chosen.generators + (candidates[k],), n)
                if len(wider.rows) == wider.l:
                    extend(wider, k + 1)

    extend(GeneratorSet((), n), 0)

    dim = 1 << n
    hadamard, index = np.ones((1, 1)), np.arange(dim)
    for _ in range(n):
        hadamard = np.kron(hadamard, [[1, 1], [1, -1]])
    states = []
    for gens in generator_tuples:
        cols, values = _phased_entries(_products([g.row for g in gens]), n)
        rendered = np.zeros((dim, dim, dim), dtype=complex)
        rendered[index[:, None], index, cols] = values
        states.extend((hadamard @ rendered.reshape(dim, -1)).reshape(dim, dim, dim) / dim + 0)
    return states


def check_density_matrix(rho: np.ndarray) -> None:
    """Assert the numeric density-matrix invariants; raises ValueError."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian")
    if abs(np.trace(rho).real - 1) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ValueError("trace is not 1")
    if np.min(np.linalg.eigvalsh(rho)) < -PSD_TOL:
        raise ValueError("matrix has a negative eigenvalue")


# ---------------------------------------------------------------------------
# Text formats.
# ---------------------------------------------------------------------------

def read_count(text: str, kind: str, count: str) -> tuple:
    """(n, the later lines) of a kind of file whose line 1 is a count n >= 0;
    blank lines are skipped and lines stripped."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"empty {kind} file")
    try:
        n = int(lines[0])
        if n < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"line 1: expected {count}, got {lines[0]!r}") from None
    return n, lines[1:]


def parse_generator_file(text: str) -> GeneratorSet:
    """Line 1 is the qubit count, then one Pauli string per line."""
    n, rest = read_count(text, "generator", "qubit count")
    gens = []
    for i, ln in enumerate(rest, start=2):
        try:
            op = parse_pauli(ln)
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
        if op.n != n:
            raise ValueError(f"line {i}: operator acts on {op.n} qubits, expected {n}")
        gens.append(op)
    return GeneratorSet(tuple(gens), n)


def format_generator_file(gens: GeneratorSet) -> str:
    lines = [str(gens.n)]
    lines.extend(format_pauli(g) for g in gens.generators)
    return "\n".join(lines) + "\n"


def _format_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def format_density_matrix(rho: np.ndarray) -> str:
    """Header line 'dim=<2^k>' then a row-major text grid of 're+imj' entries."""
    lines = [f"dim={rho.shape[0]}"]
    for row in rho:
        lines.append(" ".join(_format_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def read_dim(line: str, at: int) -> int:
    """The 2^k of the 'dim=<2^k>' header ``line``, line ``at`` of its file."""
    try:
        if not line.startswith("dim="):
            raise ValueError
        dim = int(line[4:])
        if dim < 1 or dim & (dim - 1):
            raise ValueError
    except ValueError:
        raise ValueError(f"line {at}: expected a 'dim=<2^k>' header, got {line!r}") from None
    return dim


def parse_density_matrix(text: str, first_line: int = 1) -> np.ndarray:
    """Inverse of format_density_matrix; blank lines are skipped, and an
    error names its line, counting the first as ``first_line``."""
    lines = [(at, ln.strip()) for at, ln in enumerate(text.splitlines(), start=first_line)
             if ln.strip()]
    (at, header), *rows = lines or [(first_line, "")]
    dim = read_dim(header, at)
    if len(rows) != dim:
        raise ValueError(f"line {at}: expected {dim} matrix rows, got {len(rows)}")
    rho = np.zeros((dim, dim), dtype=complex)
    for i, (at, ln) in enumerate(rows):
        tokens = ln.split()
        if len(tokens) != dim:
            raise ValueError(f"line {at}: expected {dim} entries, got {len(tokens)}")
        try:
            rho[i] = [complex(t) for t in tokens]
        except ValueError:
            raise ValueError(f"line {at}: bad matrix entry in {ln!r}") from None
    return rho
