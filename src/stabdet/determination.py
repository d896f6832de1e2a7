"""Reconstruction of graph states from the reduced density matrices on the
supports of a generating set, with independent oracles and the explicit
4-qubit counterexample showing that shrunken supports are not enough.

The two forcing chains execute the uniqueness arguments as algorithms: every
amplitude (pure chain) or matrix entry (mixed chain) of the candidate state is
fixed from the constraints one step at a time, and each step is recorded in a
forcing log.  A step compares constraint entries with the graph state's; a
deviation beyond tolerance flips the result to Inconsistent with the violated
rule named, and only a family that misses a generator's support yields
Underdetermined.  The mixed chain's checked entries force all others by a
rank-one completion; both chains end by checking every constraint in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .f2_pauli import (
    DEFAULT_TOL,
    KERNEL_CAP,
    dense_matrix,
    gather_bits,
    support,
)
from .stabilizer import (
    GeneratorSet,
    _all_nontrivial_paulis,
    _require_valid,
    density_matrix,
    parse_density_matrix,
    format_density_matrix,
    product,
    stabilizer_rdm,
)
from .graph_state import Graph, canonical_generators, sign_vector

DETERMINED = "Determined"
INCONSISTENT = "Inconsistent"
UNDERDETERMINED = "Underdetermined"

RULE_NORMALIZATION = "trace-normalization"
RULE_DIAGONAL = "diagonal-uniform"
RULE_MAGNITUDE = "magnitude-equality"
RULE_TRANSLATION = "sign-translation"
RULE_MINOR_CHAIN = "minor-chain"
RULE_MINOR_COMPLETION = "minor-completion"
RULE_UNUSED_ENTRY = "unused-entry"
RULE_MISSING_SUPPORT = "missing-support"


@dataclass(frozen=True)
class ForcingStep:
    indices: tuple
    rule: str
    generator: Optional[int] = None


@dataclass
class ReconstructionReport:
    status: str
    state: Optional[np.ndarray]
    forcing_log: list = field(default_factory=list)
    max_residual: float = 0.0
    message: str = ""


@dataclass
class RdmConstraintSet:
    """Mapping from qubit-index subsets to density matrices of matching size."""

    n: int
    constraints: dict

    def __post_init__(self):
        normalized = {}
        for omega, rho in self.constraints.items():
            key = frozenset(int(j) for j in omega)
            if not key:
                raise ValueError("empty index set")
            if any(j < 0 or j >= self.n for j in key):
                raise ValueError(f"index out of range for {self.n} qubits: {sorted(key)}")
            rho = np.asarray(rho, dtype=complex)
            dim = 1 << len(key)
            if rho.shape != (dim, dim):
                raise ValueError(f"constraint on {sorted(key)} must be {dim}x{dim}")
            if not np.all(np.isfinite(rho)):
                raise ValueError(f"constraint on {sorted(key)} has a non-finite entry")
            normalized[key] = rho
        self.constraints = normalized

    @classmethod
    def from_state(cls, rho: np.ndarray, omegas: Iterable, n: int) -> "RdmConstraintSet":
        return cls(n, {frozenset(w): dense_partial_trace(rho, w) for w in omegas})


def dense_partial_trace(rho: np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Standard partial trace over the complement of ``keep``."""
    rho = np.asarray(rho)
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if rho.shape != (dim, dim) or (1 << n) != dim:
        raise ValueError("input must be a square matrix of power-of-two size")
    keep = sorted(set(int(j) for j in keep))
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"bad index set {keep} for {n} qubits")
    arr = rho.reshape((2,) * (2 * n))
    m = n
    for j in [q for q in range(n) if q not in keep][::-1]:
        arr = np.trace(arr, axis1=j, axis2=j + m)
        m -= 1
    d = 1 << len(keep)
    return arr.reshape(d, d)


# ---------------------------------------------------------------------------
# Shared setup for the forcing chains.
# ---------------------------------------------------------------------------

def _check_graph_group(g: Graph, gens: GeneratorSet) -> None:
    """Require that the generators lie in (and hence generate) the graph
    state's stabilizer group."""
    _require_valid(gens)
    if gens.l != gens.n or gens.n != g.n:
        raise ValueError("need a full generating set on the graph's qubit count")
    canon = canonical_generators(g).generators
    for s, m in enumerate(gens.generators):
        if not m.v:
            raise ValueError(f"generator {s} has zero x-part; graph-form input required")
        if product(canon, m.v, g.n) != m:
            raise ValueError(f"generator {s} is not an element of the graph's group")


@dataclass
class _ChainSetup:
    n: int
    gens: GeneratorSet      # generates the graph state's signed group
    omegas: list            # sorted index list per generator
    r_indices: list         # x-part as basis index per generator
    matrices: list          # constraint matrix restricted to each omega
    order: list             # forcing order: (r-weight, basis index, top generator)
    signs: np.ndarray       # (-1)^{f} per basis index


def _prepare_chain(g: Graph, gens: GeneratorSet, rdms: RdmConstraintSet,
                   tol: float):
    """Common validation; returns (_ChainSetup, None) or (None, failure report)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    _check_graph_group(g, gens)
    if rdms.n != g.n:
        raise ValueError("constraint set qubit count does not match the graph")

    omegas, matrices = [], []
    for s, m in enumerate(gens.generators):
        omega = support(m)
        exact = rdms.constraints.get(omega)
        if exact is not None:
            matrices.append(exact)
        else:
            superset = min((w for w in rdms.constraints if w >= omega),
                           key=lambda w: (len(w), sorted(w)), default=None)
            if superset is None:
                return None, ReconstructionReport(
                    UNDERDETERMINED, None,
                    [ForcingStep((s,), RULE_MISSING_SUPPORT, s)],
                    message=f"no constraint covers support {sorted(omega)} "
                            f"of generator {s}")
            full = rdms.constraints[superset]
            inner = [sorted(superset).index(j) for j in sorted(omega)]
            matrices.append(dense_partial_trace(full, inner))
        omegas.append(sorted(omega))

    # Each generator is the group element named by its x-part, so the n
    # independent x-parts are a basis; span[code] = sum_s code_s r_s.  Indices
    # are forced by r-weight, then index, each by the top generator in its code.
    r_indices = [m.v for m in gens.generators]
    span = [0]
    for r in r_indices:
        span += [idx ^ r for idx in span]
    order = sorted((code.bit_count(), idx, code.bit_length() - 1 if code else None)
                   for code, idx in enumerate(span))
    return _ChainSetup(g.n, gens, omegas, r_indices, matrices, order,
                       sign_vector(g)), None


def _deviations(setup: _ChainSetup, s: int, idx: int) -> tuple:
    """How far constraint s is from the graph state at the entries linking
    idx and idx + r_s: (diagonal at idx, diagonal at idx + r_s, linking
    entry in magnitude, linking entry in value)."""
    omega = setup.omegas[s]
    other = idx ^ setup.r_indices[s]
    i_w = gather_bits(idx, omega, setup.n)
    j_w = gather_bits(other, omega, setup.n)
    mat = setup.matrices[s]
    scale = 1.0 / (1 << len(omega))
    off = mat[i_w, j_w]
    return (abs(mat[i_w, i_w] - scale), abs(mat[j_w, j_w] - scale),
            abs(abs(off) - scale),
            abs(off - scale * setup.signs[idx] * setup.signs[other]))


def _inconsistent(log: list, step: ForcingStep, dev: float,
                  wording: str) -> ReconstructionReport:
    """The report of a chain whose step failed by dev."""
    log.append(step)
    return ReconstructionReport(
        INCONSISTENT, None, log, dev,
        f"{wording} deviates by {dev:.3g} on the support of generator "
        f"{step.generator}")


# ---------------------------------------------------------------------------
# Pure-state forcing chain.
# ---------------------------------------------------------------------------

def forcing_chain_pure(g: Graph, gens: GeneratorSet, rdms: RdmConstraintSet,
                       tol: float = DEFAULT_TOL) -> ReconstructionReport:
    """Reconstruct the graph state's amplitudes from the constraint family.

    Each amplitude index is expanded in the basis of generator x-parts and
    forced by stripping the highest set exponent first; the step checks the
    diagonal entries and the linking off-diagonal entry of the constraint on
    that generator's support.
    """
    setup, failure = _prepare_chain(g, gens, rdms, tol)
    if failure is not None:
        return failure
    log = []
    residual = 0.0

    for weight, idx, top in setup.order:
        if top is None:
            log.append(ForcingStep((0, 0), RULE_NORMALIZATION))
            continue
        pair = (idx, idx ^ setup.r_indices[top])
        d_i, d_j, _, d_off = _deviations(setup, top, idx)
        for dev, rule, wording in ((d_i, RULE_DIAGONAL, "diagonal entry"),
                                   (d_j, RULE_DIAGONAL, "diagonal entry"),
                                   (d_off, RULE_TRANSLATION, "translation entry")):
            residual = max(residual, dev)
            if dev > tol:
                return _inconsistent(log, ForcingStep(pair, rule, top), dev, wording)
        log.append(ForcingStep(pair, RULE_TRANSLATION, top))

    state = setup.signs.astype(complex) / math.sqrt(1 << setup.n)
    report = ReconstructionReport(DETERMINED, state, log, residual)
    _check_unused_entries(setup, report, tol)
    return report


# ---------------------------------------------------------------------------
# Mixed-state forcing chain.
# ---------------------------------------------------------------------------

def forcing_chain_mixed(g: Graph, gens: GeneratorSet, rdms: RdmConstraintSet,
                        tol: float = DEFAULT_TOL) -> ReconstructionReport:
    """Pin every entry of a candidate Hermitian matrix from the constraints.

    Stage 1 pins the diagonal (diagonal sums, translation relations and trace
    normalization), and stage 2 pins the entries one generator-translation
    apart (magnitude equality plus sign alignment).  Those entries force the
    rest as the rank-one completion rho[i, j] = rho[i, 0] rho[0, j] / rho[0, 0]:
    stage 3 pins the zero row along a chain of 3x3 principal minors over
    partial sums, and stage 4 the remaining entries through the zero row.
    Every one of the 4^n real parameters is logged exactly once (one log step
    per diagonal entry, one per unordered off-diagonal pair).
    """
    setup, failure = _prepare_chain(g, gens, rdms, tol)
    if failure is not None:
        return failure
    dim = 1 << setup.n
    log = []
    residual = 0.0

    # Stage 1: the diagonal.
    for weight, idx, top in setup.order:
        if top is None:
            log.append(ForcingStep((0, 0), RULE_NORMALIZATION))
            continue
        step = ForcingStep((idx, idx), RULE_DIAGONAL, top)
        d_i, d_j, _, _ = _deviations(setup, top, idx)
        for dev in (d_i, d_j):
            residual = max(residual, dev)
            if dev > tol:
                return _inconsistent(log, step, dev, "diagonal sum")
        log.append(step)

    # Stage 2: entries one generator-translation apart.
    for s, rs in enumerate(setup.r_indices):
        for i in range(dim):
            j = i ^ rs
            if j < i:
                continue
            _, _, d_mag, d_off = _deviations(setup, s, i)
            for dev, rule, wording in (
                    (d_mag, RULE_MAGNITUDE, "off-diagonal magnitude"),
                    (d_off, RULE_TRANSLATION, "off-diagonal sign")):
                residual = max(residual, dev)
                if dev > tol:
                    return _inconsistent(log, ForcingStep((i, j), rule, s), dev, wording)
            log.append(ForcingStep((i, j), RULE_TRANSLATION, s))

    # Stages 1-2 fix each entry they checked to signs[i] signs[j] / dim, so
    # every 3x3 minor below is one of that exact dyadic rank-one matrix and is
    # zero: the completion is the projector and no entry can fail.
    # Stage 3: the zero row, by chained minors over partial sums.
    log.extend(ForcingStep((0, j), RULE_MINOR_CHAIN, top)
               for weight, j, top in setup.order if weight >= 2)
    # Stage 4: everything else, one minor through the zero row each.
    translations = set(setup.r_indices)
    log.extend(ForcingStep((i, j), RULE_MINOR_COMPLETION)
               for i in range(1, dim) for j in range(i + 1, dim)
               if i ^ j not in translations)

    rho = np.outer(setup.signs.astype(complex) / dim, setup.signs)
    report = ReconstructionReport(DETERMINED, rho, log, residual)
    _check_unused_entries(setup, report, tol)
    return report


def _check_unused_entries(setup: _ChainSetup, report: ReconstructionReport,
                          tol: float) -> None:
    """Final hypothesis check: every constraint matrix must equal the marginal
    of the reconstructed state, including entries the chain never touched.
    The state is the graph state, which setup.gens stabilizes, so its marginal
    is the closed form."""
    for s, mat in enumerate(setup.matrices):
        target = stabilizer_rdm(setup.gens, setup.omegas[s], cap=setup.n)
        dev = float(np.max(np.abs(mat - target)))
        report.max_residual = max(report.max_residual, dev)
        if dev > tol:
            report.status = INCONSISTENT
            report.state = None
            report.forcing_log.append(ForcingStep((s,), RULE_UNUSED_ENTRY, s))
            report.message = (f"constraint on the support of generator {s} "
                              f"deviates by {dev:.3g} outside the forcing chain")
            return


# ---------------------------------------------------------------------------
# Independent analysis oracles.
# ---------------------------------------------------------------------------


@dataclass
class KernelBasis:
    """Orthonormal (Hilbert-Schmidt) basis of traceless Hermitian matrices
    whose partial traces onto every given subset vanish."""

    n: int
    elements: list

    @property
    def dimension(self) -> int:
        return len(self.elements)


def rdm_kernel(n: int, omegas: Iterable) -> KernelBasis:
    """Basis of the space of Hermitian perturbations invisible to the given
    marginals: trace zero and vanishing partial trace onto every subset.

    A non-identity Pauli string has trace zero, and its partial trace onto
    omega vanishes unless its support lies inside omega, so the kernel is
    spanned by the Pauli strings supported inside no omega, scaled by
    2^{-n/2} to Hilbert-Schmidt norm one.
    """
    if n > KERNEL_CAP:
        raise ValueError(f"kernel analysis capped at n = {KERNEL_CAP}")
    omegas = [frozenset(int(j) for j in w) for w in omegas]
    for w in omegas:
        if not w or min(w) < 0 or max(w) >= n:
            raise ValueError(f"bad index set {sorted(w)} for {n} qubits")
    scale = 1.0 / math.sqrt(1 << n)
    elements = [scale * dense_matrix(p) for p in _all_nontrivial_paulis(n)
                if not any(support(p) <= w for w in omegas)]
    return KernelBasis(n, elements)


def uniqueness_by_enumeration(target: np.ndarray, omegas: Iterable,
                              n: int, tol: float = DEFAULT_TOL) -> bool:
    """True iff no other pure stabilizer state shares all marginals on the
    given subsets; exhaustive over the full n-qubit stabilizer-state list."""
    from .stabilizer import enumerate_stabilizer_states
    omegas = [sorted(set(int(j) for j in w)) for w in omegas]
    target = np.asarray(target, dtype=complex)
    target_marginals = [dense_partial_trace(target, w) for w in omegas]
    for state in enumerate_stabilizer_states(n):
        if np.max(np.abs(state - target)) < 1e-12:
            continue
        if all(np.max(np.abs(dense_partial_trace(state, w) - t)) < tol
               for w, t in zip(omegas, target_marginals)):
            return False
    return True


# ---------------------------------------------------------------------------
# The 4-qubit counterexample.
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_IMPOSTOR_GENERATORS = ("XZII", "ZXZI", "IIZX")
COUNTEREXAMPLE_SHARED_SUPPORTS = ({0, 1, 2}, {0, 3}, {1, 3}, {2, 3})


@dataclass
class CounterexampleReport:
    trace_distance: float
    shared_supports: dict          # support -> max marginal deviation
    distinguishing_supports: dict  # support -> max marginal deviation
    full_set_status: str
    states_differ: bool
    marginals_agree: bool
    full_set_determined: bool

    @property
    def all_pass(self) -> bool:
        return self.states_differ and self.marginals_agree and self.full_set_determined


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * float(np.sum(np.abs(eigs)))


def verify_counterexample(tol: float = DEFAULT_TOL) -> CounterexampleReport:
    """Compare the 4-qubit path graph state with the rank-2 mixed state of the
    dropped-generator set: they differ, yet agree on the marginals of the
    shrunken support family; the full support family still determines the
    graph state."""
    g = Graph.path(4)
    gens = canonical_generators(g)
    impostor = GeneratorSet.from_strings(4, COUNTEREXAMPLE_IMPOSTOR_GENERATORS)
    dist = trace_distance(density_matrix(gens), density_matrix(impostor))

    def deviation(w):
        return float(np.max(np.abs(stabilizer_rdm(gens, w) - stabilizer_rdm(impostor, w))))

    shared = {frozenset(w): deviation(w) for w in COUNTEREXAMPLE_SHARED_SUPPORTS}
    full_supports = [support(m) for m in gens.generators]
    distinguishing = {w: deviation(w) for w in full_supports}

    rdms = RdmConstraintSet(4, {w: stabilizer_rdm(gens, w) for w in full_supports})
    report = forcing_chain_mixed(g, gens, rdms, tol=tol)

    return CounterexampleReport(
        trace_distance=dist,
        shared_supports=shared,
        distinguishing_supports=distinguishing,
        full_set_status=report.status,
        states_differ=dist > 0.1,
        marginals_agree=all(dev < 1e-12 for dev in shared.values()),
        full_set_determined=report.status == DETERMINED,
    )


# ---------------------------------------------------------------------------
# Constraint file format.
# ---------------------------------------------------------------------------

def parse_rdm_file(text: str, n: int) -> RdmConstraintSet:
    """Repeated blocks: a line 'omega: i,j,k' followed by a density-matrix
    grid in the standard text format."""
    lines = text.splitlines()
    constraints = {}
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if not line.startswith("omega:"):
            raise ValueError(f"line {i + 1}: expected 'omega: ...', got {line!r}")
        try:
            omega = frozenset(int(tok) for tok in line[6:].split(","))
        except ValueError:
            raise ValueError(f"line {i + 1}: bad index list {line!r}") from None
        if omega in constraints:
            raise ValueError(f"line {i + 1}: repeated block for omega {sorted(omega)}")
        i += 1
        while i < len(lines) and not lines[i].strip():
            i += 1
        if i >= len(lines) or not lines[i].strip().startswith("dim="):
            raise ValueError(f"line {i + 1}: expected 'dim=<2^k>' header")
        dim = int(lines[i].strip()[4:])
        block = lines[i:i + dim + 1]
        constraints[omega] = parse_density_matrix("\n".join(block))
        i += dim + 1
    return RdmConstraintSet(n, constraints)


def format_rdm_file(rdms: RdmConstraintSet) -> str:
    blocks = []
    for omega in sorted(rdms.constraints, key=lambda w: (len(w), sorted(w))):
        header = "omega: " + ",".join(str(j) for j in sorted(omega))
        blocks.append(header + "\n" + format_density_matrix(rdms.constraints[omega]))
    return "\n".join(blocks)
