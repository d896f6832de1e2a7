"""Reconstruction of graph states from the reduced density matrices on the
supports of a generating set, with independent oracles and the explicit
4-qubit counterexample showing that shrunken supports are not enough.

The two forcing chains execute the uniqueness arguments as algorithms: every
amplitude (pure chain) or matrix entry (mixed chain) of the candidate state is
fixed from the constraints one step at a time, and the mixed chain's checked
entries force all others by a rank-one completion.  Only a family that misses
a generator's support yields Underdetermined.  Otherwise each supplied
block's largest deviation from the generators' closed-form marginal on its
qubits, the one ``stabilizer_rdm`` gives, decides: the chain is Determined iff
every one is within tolerance, at poly(n) 4^{|omega|} per block, and at one
lookup for a block that is that marginal, which the family holds as given.
Every step's check reads a marginal entry, so the stages are walked only when
a block fails, and only for the generators reading a failing block, to name
the first step beyond tolerance and its rule; when no step fails, the failing
block itself is named, and above DENSE_VECTOR_CAP qubits it is named without a
walk.  The family is immutable, so what the chains read (the group check and
block maxima) is built once per family and (graph, generators) and kept by
the family: both chains and every tolerance share it, and only the verdict is
taken per call.  The 2^n signs and forcing order are built only by a walk or
a read of a step, and a report's state only when read, so a Determined
verdict touches no 2^n array.

Each report carries the steps as a ``ForcingLog``: a lazy read-only sequence
with ``steps``, iteration, indexing and per-rule ``counts()``, which builds a
step only when asked for one, so the mixed chain's 4^n/2-step log costs
O(2^n) memory.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .f2_pauli import (
    DEFAULT_TOL,
    DENSE_VECTOR_CAP,
    KERNEL_CAP,
    dense_matrix,
    gather_bits,
    index_set,
    support,
)
from .stabilizer import (
    GeneratorSet,
    _all_nontrivial_paulis,
    _read_only,
    _require_valid,
    _subgroup_sum,
    density_matrix,
    parse_density_matrix,
    format_density_matrix,
    read_dim,
    product,
    stabilizer_rdm,
)
from .graph_state import Graph, canonical_generators, canonical_rows, sign_vector, state_vector

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
RULE_BLOCK_DEVIATION = "block-deviation"


@dataclass(frozen=True)
class ForcingStep:
    indices: tuple
    rule: str
    generator: Optional[int] = None


class _Run(NamedTuple):
    """A stretch of a forcing log under one rule, generated on demand."""
    rule: str
    length: int
    at: Callable  # k -> the k-th step of the stretch, 0 <= k < length


def _stored(step: ForcingStep) -> _Run:
    return _Run(step.rule, 1, lambda k: step)


class ForcingLog(Sequence):
    """A chain's forcing log: a read-only sequence of ForcingSteps.

    The log is held as runs of steps under one rule, each generating its
    steps from the chain's setup when asked, so the length and the per-rule
    counts come without building any step, and ``log[k]`` builds one.  The
    length is the int ``steps``: ``len`` raises OverflowError beyond
    sys.maxsize steps, which the mixed chain passes at n = 32, while
    iteration, forwards or reversed, never takes it.
    """

    def __init__(self, runs: Iterable[_Run] = ()):
        self._runs = tuple(run for run in runs if run.length)
        self._ends = list(accumulate(run.length for run in self._runs))
        self.steps = self._ends[-1] if self._ends else 0

    def __len__(self) -> int:
        return self.steps

    def __bool__(self) -> bool:
        return self.steps > 0

    def __getitem__(self, k: int) -> ForcingStep:
        k = operator.index(k)
        if k < 0:
            k += self.steps
        if not 0 <= k < self.steps:
            raise IndexError("forcing log index out of range")
        r = bisect_right(self._ends, k)
        return self._runs[r].at(k - (self._ends[r - 1] if r else 0))

    def __iter__(self):
        for run in self._runs:
            yield from map(run.at, range(run.length))

    def __reversed__(self):
        for run in reversed(self._runs):
            yield from map(run.at, range(run.length - 1, -1, -1))

    def counts(self) -> dict:
        """Steps per rule, rules in log order."""
        counts = {}
        for run in self._runs:
            counts[run.rule] = counts.get(run.rule, 0) + run.length
        return counts

    def __repr__(self) -> str:
        return f"ForcingLog({self.steps} steps, {self.counts()})"


@dataclass
class ReconstructionReport:
    """A chain's verdict.  ``state`` is built on first read by ``build_state``:
    the Determined state, refused above DENSE_VECTOR_CAP qubits, else None."""

    status: str
    forcing_log: ForcingLog = field(default_factory=ForcingLog)
    max_residual: float = 0.0
    message: str = ""
    build_state: Callable = field(default=lambda: None, repr=False, compare=False)

    @cached_property
    def state(self) -> Optional[np.ndarray]:
        return self.build_state()


@dataclass(frozen=True, eq=False)
class RdmConstraintSet:
    """Mapping from qubit-index subsets to density matrices of matching size.

    Immutable: a block that is a read-only complex128 ndarray owning its
    memory, as ``stabilizer_rdm`` returns, is held as given; any other is
    copied into one.  Every block's shape and entries are checked, and the
    blocks are kept in a read-only mapping, so the family can keep the
    chains' setup, which reads the blocks, once it is built."""

    n: int
    constraints: Mapping

    def __post_init__(self):
        blocks = {}
        for omega, rho in self.constraints.items():
            key = index_set(omega, self.n)
            if key in blocks:
                raise ValueError(f"constraint on {sorted(key)} is given twice")
            if not (type(rho) is np.ndarray and rho.dtype == complex
                    and rho.flags.owndata and not rho.flags.writeable):
                rho = _read_only(np.array(rho, dtype=complex))
            dim = 1 << len(key)
            if rho.shape != (dim, dim):
                raise ValueError(f"constraint on {sorted(key)} must be {dim}x{dim}")
            if not np.all(np.isfinite(rho)):
                raise ValueError(f"constraint on {sorted(key)} has a non-finite entry")
            blocks[key] = rho
        object.__setattr__(self, "constraints", MappingProxyType(blocks))

    @classmethod
    def from_state(cls, rho: np.ndarray, omegas: Iterable, n: int) -> "RdmConstraintSet":
        return cls(n, {frozenset(w): dense_partial_trace(rho, w) for w in omegas})

    def _setup(self, g: Graph, gens: GeneratorSet) -> "_FamilySetup":
        """Both chains' setup on (g, gens), built on first use.  The family
        keeps the last pair's, found again by equal generators and adjacency;
        the old one goes before a new one is built, and a failed check
        stores none."""
        setup = vars(self).get("_kept_setup")
        if setup is None or setup.gens != gens or setup.graph != g:
            vars(self).pop("_kept_setup", None)
            setup = vars(self)["_kept_setup"] = _FamilySetup(g, gens, self)
        return setup


def dense_partial_trace(rho: np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Standard partial trace over the complement of ``keep``."""
    rho = np.asarray(rho)
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if rho.shape != (dim, dim) or (1 << n) != dim:
        raise ValueError("input must be a square matrix of power-of-two size")
    keep = sorted(index_set(keep, n))
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
    canon = canonical_rows(g)
    for s, m in enumerate(gens.generators):
        if not m.v:
            raise ValueError(f"generator {s} has zero x-part; graph-form input required")
        if product(canon, m.v) != m.row:
            raise ValueError(f"generator {s} is not an element of the graph's group")


def _by_size(w) -> tuple:
    return len(w), sorted(w)


def _largest_deviation(gens: GeneratorSet, c: np.ndarray, w: frozenset) -> float:
    """The largest |C - M| for the block C on omega, M the generators'
    marginal there as ``stabilizer_rdm`` gives it, the set's kept array:
    exact dyadic, and real, as the generators generate the graph's group.
    A block that is M itself deviates by 0.0, with no pass over it."""
    m = _subgroup_sum(gens, w)
    if m is c:
        return 0.0
    d = m - c
    return float(np.hypot(d.real, d.imag, out=d.real).max())


def _require_dense(n: int) -> None:
    if n > DENSE_VECTOR_CAP:
        raise ValueError(f"dense rendering cap exceeded: n={n} > {DENSE_VECTOR_CAP}")


def _projector(g: Graph) -> np.ndarray:
    """The graph state's density matrix signs[i] signs[j] / 2^n, exact."""
    _require_dense(g.n)
    signs = sign_vector(g)
    return np.outer(signs.astype(complex) / (1 << g.n), signs)


class _FamilySetup:
    """What both chains read for one family on (graph, generators), built
    once and kept by the family.  It reads the family's own blocks and the
    marginals the generator set keeps, and keeps no marginal.

    Each generator reads the smallest block covering its support, sought
    among the blocks on its support's lowest qubit; if none covers one,
    ``missing`` names the first such generator and nothing more is built.
    Otherwise each block C on omega keeps only its largest |C - M|, in
    ``worst``: the read blocks first, in the order first read.
    The 2^n arrays, ``signs`` and ``order``, are 1-D, read-only and built on
    first read, by a walk or a read of a step."""

    def __init__(self, g: Graph, gens: GeneratorSet, rdms: RdmConstraintSet):
        _check_graph_group(g, gens)
        if rdms.n != g.n:
            raise ValueError("constraint set qubit count does not match the graph")
        self.graph, self.gens, self.n = g, gens, g.n
        self.supports = [support(m) for m in gens.generators]
        self.blocks = rdms.constraints
        meeting = {}  # qubit -> the blocks on it
        for w in self.blocks:
            for j in w:
                meeting.setdefault(j, []).append(w)
        self.reads = [min((w for w in meeting.get(min(omega), ()) if w >= omega),
                          key=_by_size, default=None) for omega in self.supports]
        self.missing = self.reads.index(None) if None in self.reads else None
        if self.missing is not None:
            return
        self.r_indices = [m.v for m in gens.generators]
        self.worst = {w: _largest_deviation(gens, self.blocks[w], w)
                      for w in list(dict.fromkeys(self.reads))
                      + sorted(self.blocks.keys() - set(self.reads), key=_by_size)}

    @cached_property
    def signs(self) -> np.ndarray:
        return _read_only(sign_vector(self.graph))

    @cached_property
    def order(self) -> tuple:
        """(forced, tops): the basis indices in forcing order and the
        generator forcing each, -1 at index 0.  Each generator is the group
        element named by its x-part, so the n independent x-parts are a basis;
        span[code] = sum_s code_s r_s.  Indices are forced by r-weight, then
        index, each by the top generator in its code."""
        _require_dense(self.n)
        span, weight, top = np.zeros(1, np.int64), np.zeros(1, np.int64), np.full(1, -1)
        for s, r in enumerate(self.r_indices):
            span = np.concatenate((span, span ^ r))
            weight = np.concatenate((weight, weight + 1))
            top = np.concatenate((top, np.full(len(top), s)))
        order = np.lexsort((span, weight))
        return _read_only(span[order]), _read_only(top[order])


def _magnitude(z: np.ndarray) -> np.ndarray:
    # np.hypot rounds like abs() of one complex number; np.abs of a complex
    # array may take a vector path that differs in the last bit, which would
    # make a residual depend on how many entries were checked together.
    return np.hypot(z.real, z.imag)


def _prepare_chain(g: Graph, gens: GeneratorSet, rdms: RdmConstraintSet,
                   tol: float):
    """Common validation; returns (the family's _FamilySetup, None), or
    (None, a fresh Underdetermined report) if no block covers a generator's
    support."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    setup = rdms._setup(g, gens)
    s = setup.missing
    if s is None:
        return setup, None
    return None, ReconstructionReport(
        UNDERDETERMINED,
        ForcingLog([_stored(ForcingStep((s,), RULE_MISSING_SUPPORT, s))]),
        message=f"no constraint covers support {sorted(setup.supports[s])} of generator {s}")


def _deviations(setup: _FamilySetup, s: int, idx: np.ndarray) -> np.ndarray:
    """How far the constraint W that generator s reads is from the graph
    state at the entries linking each index i in idx and j = i + r_s, one row
    per index: both diagonals, target 2^-|W|, and the linking entry in
    magnitude, target 2^-|W|, and in value, target 2^-|W| s_i s_j, as g_s is
    the one element of S_W translating i to j.  These are exactly the
    marginal's entries, so each deviation is at most W's largest."""
    w, r, signs = setup.reads[s], setup.r_indices[s], setup.signs
    c, qubits, m = setup.blocks[w], sorted(w), 1 / (1 << len(w))
    i_w, j_w = gather_bits(idx, qubits, setup.n), gather_bits(idx ^ r, qubits, setup.n)
    link = c[i_w, j_w]
    return np.column_stack((_magnitude(c[i_w, i_w] - m), _magnitude(c[j_w, j_w] - m),
                            np.abs(_magnitude(link) - m),
                            _magnitude(link - m * signs[idx] * signs[idx ^ r])))


def _forced_deviations(setup: _FamilySetup, walked: list) -> np.ndarray:
    """_deviations for every forcing step after index 0, in forcing order,
    for the steps of the generators in walked; zero for the others."""
    forced, tops = (a[1:] for a in setup.order)
    devs = np.zeros((len(forced), 4))
    for s in walked:
        mine = tops == s
        devs[mine] = _deviations(setup, s, forced[mine])
    return devs


def _report(setup: _FamilySetup, tol: float, stages: list, tail: list,
            state: Callable) -> ReconstructionReport:
    """A chain's report, decided by the blocks' largest deviations alone.

    If every block is within tol the chain is Determined: the residual is
    the largest deviation, the log holds every run at full length, and no
    stage deviation is computed.  Each stage deviation is that of one entry of
    a block, so otherwise the stages, each a (run, function of the
    generators to walk giving the run's deviations, zero for the others, one
    (rule, wording) per deviation column), are walked only to name the first
    step above tol: that step under its column's rule.  A generator's steps
    read only the block it reads, so only the generators of a failing block
    are walked.  Failing none, the first failing block is named, by the first
    generator whose support it is, else by its qubits; above DENSE_VECTOR_CAP
    qubits it is named so without a walk.  A Determined report builds its
    state on first read, by the function state."""
    worst = setup.worst
    residual, runs = max(worst.values(), default=0.0), [_NORMALIZATION]
    if residual <= tol:
        return ReconstructionReport(
            DETERMINED, ForcingLog(runs + [run for run, _, _ in stages] + tail), residual,
            build_state=state)
    w = next(w for w, dev in worst.items() if dev > tol)
    s = setup.supports.index(w) if w in setup.supports else None
    block = (s,) if s is not None else tuple(sorted(w))
    where = f"the support of generator {s}" if s is not None else f"qubits {sorted(w)}"
    if setup.n > DENSE_VECTOR_CAP:
        return ReconstructionReport(
            INCONSISTENT, ForcingLog([_stored(ForcingStep(block, RULE_BLOCK_DEVIATION, s))]),
            worst[w], f"constraint on {where} deviates by {worst[w]:.3g}; no forcing "
                      f"chain is walked above {DENSE_VECTOR_CAP} qubits")
    walked = [s for s, w in enumerate(setup.reads) if worst[w] > tol]
    for run, deviations, columns in stages:
        devs = deviations(walked)
        above = np.flatnonzero(devs > tol)
        if above.size:
            k, col = divmod(int(above[0]), devs.shape[1])
            rule, wording = columns[col]
            step, dev = replace(run.at(k), rule=rule), float(devs.flat[above[0]])
            return ReconstructionReport(
                INCONSISTENT, ForcingLog(runs + [run._replace(length=k), _stored(step)]),
                dev, f"{wording} deviates by {dev:.3g} on the support of generator "
                     f"{step.generator}")
        runs.append(run)
    step = ForcingStep(block, RULE_UNUSED_ENTRY, s)
    return ReconstructionReport(
        INCONSISTENT, ForcingLog(runs + tail + [_stored(step)]), worst[w],
        f"constraint on {where} deviates by {worst[w]:.3g} outside the forcing chain")


_NORMALIZATION = _stored(ForcingStep((0, 0), RULE_NORMALIZATION))


# ---------------------------------------------------------------------------
# Pure-state forcing chain.
# ---------------------------------------------------------------------------

def forcing_chain_pure(g: Graph, gens: GeneratorSet, rdms: RdmConstraintSet,
                       tol: float = DEFAULT_TOL) -> ReconstructionReport:
    """Reconstruct the graph state's amplitudes from the constraint family.

    Each amplitude index is expanded in the basis of generator x-parts and
    forced by stripping the highest set exponent first; the step checks the
    diagonal entries and the linking off-diagonal entry of the constraint
    that generator reads.
    """
    setup, failure = _prepare_chain(g, gens, rdms, tol)
    if failure is not None:
        return failure
    rs = setup.r_indices

    def translation(k):  # the k-th step after normalization
        forced, tops = setup.order
        idx, s = int(forced[k + 1]), int(tops[k + 1])
        return ForcingStep((idx, idx ^ rs[s]), RULE_TRANSLATION, s)

    stage = (_Run(RULE_TRANSLATION, (1 << setup.n) - 1, translation),
             lambda walked: _forced_deviations(setup, walked)[:, [0, 1, 3]],
             ((RULE_DIAGONAL, "diagonal entry"), (RULE_DIAGONAL, "diagonal entry"),
              (RULE_TRANSLATION, "translation entry")))
    return _report(setup, tol, [stage], [], partial(state_vector, g))


# ---------------------------------------------------------------------------
# Mixed-state forcing chain.
# ---------------------------------------------------------------------------

def _lower_ends(r: int, k):
    """The k-th index i, ascending, with i < i + r: k with a 0 inserted at
    the top bit of r."""
    h = r.bit_length() - 1
    return ((k >> h) << (h + 1)) | (k & ((1 << h) - 1))


def _completion_run(n: int, rs: list) -> _Run:
    """Stage 4: the pairs 0 < i < j that are not one translation apart, row
    by row; row i skips the j = i + r_s above i.  Of the (2^n-1)(2^n-2)/2
    pairs, each distinct r_s links 2^(n-1) - 1, so the length needs no rows;
    their ends are built when a step is first asked for."""
    dim = 1 << n

    @cache
    def row_ends():
        _require_dense(n)
        rows = np.arange(1, dim)
        skips = sum(1 - ((rows >> (r.bit_length() - 1)) & 1) for r in rs)
        return np.cumsum(dim - 1 - rows - skips).tolist()

    def at(k):
        ends = row_ends()
        row = bisect_right(ends, k)
        i = row + 1
        j = i + 1 + k - (ends[row - 1] if row else 0)
        for skip in sorted(i ^ r for r in rs if i ^ r > i):
            if skip <= j:
                j += 1
        return ForcingStep((i, j), RULE_MINOR_COMPLETION)

    return _Run(RULE_MINOR_COMPLETION, (dim - 1) * (dim - 2) // 2 - n * (dim // 2 - 1), at)


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
    n, dim, rs = setup.n, 1 << setup.n, setup.r_indices

    # Stage 1: the diagonal.
    def diagonal(k):  # the k-th step after normalization
        forced, tops = setup.order
        idx = int(forced[k + 1])
        return ForcingStep((idx, idx), RULE_DIAGONAL, int(tops[k + 1]))

    # Stage 2: entries one generator-translation apart, by generator.
    half = dim // 2

    def translation(k):
        s, k = divmod(k, half)
        i = _lower_ends(rs[s], k)
        return ForcingStep((i, i ^ rs[s]), RULE_TRANSLATION, s)

    def translation_deviations(walked):
        devs, lower = np.zeros((n, half, 2)), np.arange(half)
        for s in walked:
            devs[s] = _deviations(setup, s, _lower_ends(rs[s], lower))[:, 2:]
        return devs.reshape(-1, 2)

    stages = [(_Run(RULE_DIAGONAL, dim - 1, diagonal),
               lambda walked: _forced_deviations(setup, walked)[:, :2],
               ((RULE_DIAGONAL, "diagonal sum"), (RULE_DIAGONAL, "diagonal sum"))),
              (_Run(RULE_TRANSLATION, n * half, translation), translation_deviations,
               ((RULE_MAGNITUDE, "off-diagonal magnitude"),
                (RULE_TRANSLATION, "off-diagonal sign")))]

    # Stages 1-2 pin each entry they read to signs[i] signs[j] / dim, so
    # every 3x3 minor below is one of that exact dyadic rank-one matrix and is
    # zero: the completion is the projector and no entry can fail.
    # Stage 3: the zero row, by chained minors over partial sums: the indices
    # of r-weight 2 and up, which follow index 0 and the n of weight 1.
    def chain(k):
        forced, tops = setup.order
        return ForcingStep((0, int(forced[k + n + 1])), RULE_MINOR_CHAIN, int(tops[k + n + 1]))

    # Stage 4: everything else, one minor through the zero row each.
    tail = [_Run(RULE_MINOR_CHAIN, dim - 1 - n, chain), _completion_run(n, rs)]
    return _report(setup, tol, stages, tail, partial(_projector, g))


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
    omegas = [index_set(w, n) for w in omegas]
    scale = 1.0 / math.sqrt(1 << n)
    elements = [scale * dense_matrix(p) for p in _all_nontrivial_paulis(n)
                if not any(support(p) <= w for w in omegas)]
    return KernelBasis(n, elements)


def uniqueness_by_enumeration(target: np.ndarray, omegas: Iterable,
                              n: int, tol: float = DEFAULT_TOL) -> bool:
    """True iff no other pure stabilizer state shares all marginals on the
    given subsets; exhaustive over the full n-qubit stabilizer-state list."""
    from .stabilizer import enumerate_stabilizer_states
    omegas = [sorted(index_set(w, n)) for w in omegas]
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
    graph_generators: GeneratorSet     # the path graph's canonical set
    impostor_generators: GeneratorSet  # the dropped-generator set
    trace_distance: float
    shared_supports: dict          # support -> max marginal deviation
    distinguishing_supports: dict  # support -> max marginal deviation
    full_set_status: str
    states_differ: bool
    marginals_agree: bool            # every shared support within tol
    full_set_distinguishes: bool     # some full support beyond tol
    full_set_determined: bool

    @property
    def all_pass(self) -> bool:
        return (self.states_differ and self.marginals_agree
                and self.full_set_distinguishes and self.full_set_determined)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * float(np.sum(np.abs(eigs)))


def verify_counterexample(tol: float = DEFAULT_TOL) -> CounterexampleReport:
    """Compare the 4-qubit path graph state with the rank-2 mixed state of the
    dropped-generator set: they differ, yet agree on the marginals of the
    shrunken support family; the full support family still tells them apart
    and determines the graph state.  Agreement means within tol."""
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
        graph_generators=gens,
        impostor_generators=impostor,
        trace_distance=dist,
        shared_supports=shared,
        distinguishing_supports=distinguishing,
        full_set_status=report.status,
        states_differ=dist > 0.1,
        marginals_agree=all(dev <= tol for dev in shared.values()),
        full_set_distinguishes=any(dev > tol for dev in distinguishing.values()),
        full_set_determined=report.status == DETERMINED,
    )


# ---------------------------------------------------------------------------
# Constraint file format.
# ---------------------------------------------------------------------------

def parse_rdm_file(text: str, n: int) -> RdmConstraintSet:
    """Repeated blocks: a line 'omega: i,j,k' followed by a density-matrix
    grid in the standard text format, of dim 2^|omega|.  Errors name their
    line."""
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
            omega = index_set(map(int, line[6:].split(",")), n)
        except ValueError as exc:
            raise ValueError(f"line {i + 1}: bad index list {line!r} ({exc})") from None
        if omega in constraints:
            raise ValueError(f"line {i + 1}: repeated block for omega {sorted(omega)}")
        i += 1
        while i < len(lines) and not lines[i].strip():
            i += 1
        dim = read_dim(lines[i].strip() if i < len(lines) else "", i + 1)
        if dim != 1 << len(omega):
            raise ValueError(f"line {i + 1}: omega {sorted(omega)} needs "
                             f"dim={1 << len(omega)}, got dim={dim}")
        constraints[omega] = _read_only(
            parse_density_matrix("\n".join(lines[i:i + dim + 1]), i + 1))
        i += dim + 1
    return RdmConstraintSet(n, constraints)


def format_rdm_file(rdms: RdmConstraintSet) -> str:
    blocks = []
    for omega in sorted(rdms.constraints, key=_by_size):
        header = "omega: " + ",".join(str(j) for j in sorted(omega))
        blocks.append(header + "\n" + format_density_matrix(rdms.constraints[omega]))
    return "\n".join(blocks)
