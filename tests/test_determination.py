import itertools
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabdet.f2_pauli import eliminate, support
from stabdet.stabilizer import (
    GeneratorSet,
    density_matrix,
    recombine_generators,
    stabilizer_rdm,
)
from stabdet.graph_state import Graph, canonical_generators, state_vector
from stabdet.determination import (
    DETERMINED,
    INCONSISTENT,
    UNDERDETERMINED,
    RULE_BLOCK_DEVIATION,
    RULE_DIAGONAL,
    RULE_MAGNITUDE,
    RULE_MINOR_CHAIN,
    RULE_MINOR_COMPLETION,
    RULE_NORMALIZATION,
    RULE_TRANSLATION,
    RULE_UNUSED_ENTRY,
    _check_graph_group,
    _completion_run,
    _deviations,
    _prepare_chain,
    _report,
    _Run,
    ForcingLog,
    ForcingStep,
    RdmConstraintSet,
    dense_partial_trace,
    forcing_chain_mixed,
    forcing_chain_pure,
    format_rdm_file,
    parse_rdm_file,
    rdm_kernel,
    trace_distance,
    uniqueness_by_enumeration,
    verify_counterexample,
)

from conftest import (
    edited,
    hermitian_basis,
    ptrace_by_summation,
    random_graph,
    random_invertible_f2,
)

P4 = Graph.path(4)
P4_GENS = canonical_generators(P4)
P4_RHO = density_matrix(P4_GENS)
P4_SUPPORTS = [support(m) for m in P4_GENS.generators]


def exact_rdms(g, gens=None, supports=None):
    gens = gens or canonical_generators(g)
    supports = supports or [support(m) for m in gens.generators]
    rho = density_matrix(gens if gens.l == g.n else canonical_generators(g))
    return RdmConstraintSet.from_state(rho, supports, g.n)


# --- partial trace ---

def test_partial_trace_product_state():
    a = np.diag([0.25, 0.75]).astype(complex)
    b = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert np.allclose(dense_partial_trace(np.kron(a, b), [0]), a)
    assert np.allclose(dense_partial_trace(np.kron(a, b), [1]), b)


def test_partial_trace_ghz():
    gens = GeneratorSet.from_strings(3, ["XXX", "ZZI", "IZZ"])
    rho = density_matrix(gens)
    assert np.allclose(dense_partial_trace(rho, [0, 1]), np.diag([0.5, 0, 0, 0.5]))


def test_partial_trace_matches_summation_oracle():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        raw = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho)
        size = int(rng.integers(1, n + 1))
        keep = sorted(rng.choice(n, size=size, replace=False).tolist())
        assert np.max(np.abs(dense_partial_trace(rho, keep)
                             - ptrace_by_summation(rho, keep, n))) < 1e-12


def test_partial_trace_matches_stabilizer_formula():
    from stabdet.stabilizer import stabilizer_rdm
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        g = random_graph(n, rng)
        gens = canonical_generators(g)
        rho = density_matrix(gens)
        for m in gens.generators:
            w = support(m)
            assert np.max(np.abs(dense_partial_trace(rho, w)
                                 - stabilizer_rdm(gens, w))) < 1e-12


def test_partial_trace_rejects_bad_sets():
    with pytest.raises(ValueError):
        dense_partial_trace(np.eye(4) / 4, [])
    with pytest.raises(ValueError):
        dense_partial_trace(np.eye(4) / 4, [2])
    with pytest.raises(ValueError, match="input must be a square matrix of power-of-two size"):
        dense_partial_trace(np.eye(3) / 3, [0])


@pytest.mark.parametrize("bad", [0.9, "1", None, 1.0])
def test_index_sets_reject_non_integers(bad):
    gens = GeneratorSet.from_strings(2, ["XZ", "ZX"])
    for call in (lambda: stabilizer_rdm(gens, [bad, True]),
                 lambda: RdmConstraintSet(2, {(bad,): np.eye(2) / 2}),
                 lambda: dense_partial_trace(np.eye(4) / 4, [0, bad])):
        with pytest.raises(ValueError, match=f"qubit index {bad!r} is not an integer"):
            call()
    # numpy integers (and bools, which are integers) still index
    assert np.array_equal(stabilizer_rdm(gens, [np.int64(0), True]), stabilizer_rdm(gens, [0, 1]))
    assert set(RdmConstraintSet(2, {(np.uint8(1),): np.eye(2) / 2}).constraints) == {frozenset({1})}


# --- pure chain ---

def test_pure_chain_p4():
    report = forcing_chain_pure(P4, P4_GENS, exact_rdms(P4))
    assert report.status == DETERMINED
    assert np.max(np.abs(report.state - state_vector(P4))) < 1e-12
    assert np.allclose(np.abs(report.state), 0.25)
    # every amplitude forced exactly once
    firsts = [step.indices[0] for step in report.forcing_log]
    assert sorted(firsts) == list(range(16))


def test_pure_chain_edgeless():
    g = Graph.from_edges(2, [])
    report = forcing_chain_pure(g, canonical_generators(g), exact_rdms(g))
    assert report.status == DETERMINED
    assert np.allclose(report.state, 0.5)


def test_pure_chain_perturbed_diagonal_is_inconsistent():
    rdms = edited(exact_rdms(P4), frozenset({0, 1}), lambda m: _bump(m, 0, 0))
    report = forcing_chain_pure(P4, P4_GENS, rdms)
    assert report.status == INCONSISTENT
    assert report.forcing_log[-1].rule == RULE_DIAGONAL
    assert report.max_residual >= 0.01 - 1e-12


def test_pure_chain_soundness_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        g = random_graph(n, rng)
        report = forcing_chain_pure(g, canonical_generators(g), exact_rdms(g))
        assert report.status == DETERMINED
        assert np.max(np.abs(report.state - state_vector(g))) < 1e-12


def test_pure_chain_stays_out_of_dense_memory():
    g = Graph.path(12)
    gens = canonical_generators(g)
    rdms = RdmConstraintSet(12, {support(m): stabilizer_rdm(gens, support(m))
                                 for m in gens.generators})
    tracemalloc.start()
    try:
        report = forcing_chain_pure(g, gens, rdms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.status == DETERMINED
    # a 2^12 x 2^12 complex matrix alone would take 256 MiB
    assert peak < 32 * 2 ** 20


def test_pure_chain_missing_support_underdetermined():
    rdms = edited(exact_rdms(P4), frozenset({0, 1, 2}))
    report = forcing_chain_pure(P4, P4_GENS, rdms)
    assert report.status == UNDERDETERMINED


def test_pure_chain_rejects_non_group_generators():
    with pytest.raises(ValueError):
        forcing_chain_pure(P4, canonical_generators(Graph.star(4)), exact_rdms(P4))
    with pytest.raises(ValueError, match="need a full generating set on the graph's qubit count"):
        forcing_chain_pure(P4, canonical_generators(Graph.path(3)), exact_rdms(P4))
    product_state = GeneratorSet.from_strings(4, ["ZIII", "IZII", "IIZI", "IIIZ"])
    with pytest.raises(ValueError, match="generator 0 has zero x-part; graph-form input required"):
        forcing_chain_pure(P4, product_state, exact_rdms(P4))
    with pytest.raises(ValueError, match="constraint set qubit count does not match the graph"):
        forcing_chain_pure(P4, P4_GENS, RdmConstraintSet(5, exact_rdms(P4).constraints))


def test_non_finite_input_is_rejected():
    held = np.full((4, 4), np.nan + 0j)
    held.setflags(write=False)  # a family holds it as given, checked all the same
    for block in (np.full((4, 4), np.nan + 0j), held):
        with pytest.raises(ValueError, match="non-finite"):
            RdmConstraintSet(4, {frozenset({0, 1}): block})
    rdms = exact_rdms(P4)
    for chain in (forcing_chain_pure, forcing_chain_mixed):
        for tol in (np.nan, np.inf, 0.0):
            with pytest.raises(ValueError, match="tol"):
                chain(P4, P4_GENS, rdms, tol=tol)


# --- mixed chain ---

def test_mixed_chain_p4():
    report = forcing_chain_mixed(P4, P4_GENS, exact_rdms(P4))
    assert report.status == DETERMINED
    assert np.max(np.abs(report.state - P4_RHO)) < 1e-12


def test_mixed_chain_log_covers_all_parameters():
    rng = np.random.default_rng(31)
    for g in [P4] + [random_graph(n, rng) for n in range(1, 7)]:
        n, dim = g.n, 1 << g.n
        report = forcing_chain_mixed(g, canonical_generators(g), exact_rdms(g))
        pairs = [step.indices for step in report.forcing_log]
        assert len(pairs) == len(set(pairs))
        params = sum(1 if i == j else 2 for i, j in pairs)
        assert params == 4 ** n
        counts = Counter(step.rule for step in report.forcing_log)
        assert counts == Counter({
            RULE_NORMALIZATION: 1,
            RULE_DIAGONAL: dim - 1,
            RULE_TRANSLATION: n * dim // 2,
            RULE_MINOR_CHAIN: dim - 1 - n,
            RULE_MINOR_COMPLETION: (dim - 1) * (dim - 2) // 2 - n * dim // 2 + n,
        })
        assert all(step.indices[0] == 0 for step in report.forcing_log
                   if step.rule == RULE_MINOR_CHAIN)


def test_mixed_chain_log_stays_lazy():
    g = Graph.path(10)
    gens = canonical_generators(g)
    rdms = RdmConstraintSet(10, {support(m): stabilizer_rdm(gens, support(m))
                                 for m in gens.generators})
    tracemalloc.start()
    try:
        report = forcing_chain_mixed(g, gens, rdms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.status == DETERMINED
    assert len(report.forcing_log) == 1024 * 1025 // 2
    # the state alone takes 16 MiB; a list of the 524,800 steps took 112 MiB
    assert peak < 32 * 2 ** 20


def test_completion_run_length_is_the_closed_form():
    # Stage 4 is every pair 0 < i < j not one translation apart, row by row;
    # its length is counted without rows, which the log builds when asked.
    rng = np.random.default_rng(37)
    for n in range(7):
        g = random_graph(n, rng)
        canon = canonical_generators(g)
        for gens in (canon, recombine_generators(canon, random_invertible_f2(n, rng))):
            rs = {m.v for m in gens.generators}
            pairs = [(i, j) for i in range(1, 1 << n) for j in range(i + 1, 1 << n)
                     if i ^ j not in rs]
            assert _completion_run(n, [m.v for m in gens.generators]).length == len(pairs)
            report = forcing_chain_mixed(g, gens, exact_rdms(g, gens))
            assert report.status == DETERMINED
            steps = list(report.forcing_log)  # stage 4 ends the log
            assert steps[len(steps) - len(pairs):] == [
                ForcingStep(pair, RULE_MINOR_COMPLETION) for pair in pairs]
            assert report.forcing_log.counts().get(RULE_MINOR_COMPLETION, 0) == len(pairs)


def test_mixed_chain_succeeds_on_minimal_support_family():
    rdms = RdmConstraintSet.from_state(
        P4_RHO, [{0, 1, 2}, {1, 2, 3}], 4)
    report = forcing_chain_mixed(P4, P4_GENS, rdms)
    assert report.status == DETERMINED
    assert np.max(np.abs(report.state - P4_RHO)) < 1e-12


def test_mixed_chain_full_system_constraint():
    g = Graph.star(3)
    gens = canonical_generators(g)
    rho = density_matrix(gens)
    rdms = RdmConstraintSet.from_state(rho, [{0, 1, 2}], 3)
    report = forcing_chain_mixed(g, gens, rdms)
    assert report.status == DETERMINED
    assert np.max(np.abs(report.state - rho)) < 1e-12


def test_mixed_chain_perturbed_is_inconsistent():
    rdms = edited(exact_rdms(P4), frozenset({1, 2, 3}), lambda m: _bump(m, 0, 0))
    report = forcing_chain_mixed(P4, P4_GENS, rdms)
    assert report.status == INCONSISTENT
    assert report.state is None


def test_mixed_chain_soundness_random_graphs():
    rng = np.random.default_rng(27)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        g = random_graph(n, rng)
        gens = canonical_generators(g)
        rho = density_matrix(gens)
        report = forcing_chain_mixed(g, gens, exact_rdms(g))
        assert report.status == DETERMINED
        assert np.max(np.abs(report.state - rho)) < 1e-12


def test_mixed_chain_generating_set_invariance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        gens = recombine_generators(P4_GENS, random_invertible_f2(4, rng))
        supports = [support(m) for m in gens.generators]
        rdms = RdmConstraintSet.from_state(P4_RHO, supports, 4)
        report = forcing_chain_mixed(P4, gens, rdms)
        assert report.status == DETERMINED
        assert np.max(np.abs(report.state - P4_RHO)) < 1e-12


def test_mixed_chain_shrunken_support_flips_status():
    # replace the support of generator 1 by a strict subset
    supports = [{0, 1}, {0, 1}, {1, 2, 3}, {2, 3}]
    rdms = RdmConstraintSet.from_state(P4_RHO, supports, 4)
    report = forcing_chain_mixed(P4, P4_GENS, rdms)
    assert report.status == UNDERDETERMINED


# --- failure paths of both chains ---

def _scale(m, f):
    m[0, 2] *= f
    m[2, 0] *= f


def _bump(m, i, j, d=0.01):
    m[i, j] += d
    if i != j:
        m[j, i] += np.conj(d)


# |d| rounds up to 0.010000000000000002, where a vectorised np.abs gives 0.01.
_ROUNDED = 0.0033875520457621456 - 0.00940874546032853j


# Edits of the exact P4 block on {0, 1}, the support of generator 0, whose
# translation entry is (0, 2).  Per chain: (rule, last indices, log length,
# message head, max_residual) of the failing step.
_FAILURES = [
    (lambda m: _bump(m, 0, 0),
     (RULE_DIAGONAL, (8, 0), 5, "diagonal entry", 0.25 + 0.01 - 0.25),
     (RULE_DIAGONAL, (8, 8), 5, "diagonal sum", 0.25 + 0.01 - 0.25)),
    (lambda m: _scale(m, -1),
     (RULE_TRANSLATION, (8, 0), 5, "translation entry", 0.5),
     (RULE_TRANSLATION, (0, 8), 17, "off-diagonal sign", 0.5)),
    (lambda m: _scale(m, 1.5),
     (RULE_TRANSLATION, (8, 0), 5, "translation entry", 0.125),
     (RULE_MAGNITUDE, (0, 8), 17, "off-diagonal magnitude", 0.125)),
    (lambda m: _bump(m, 0, 1),
     (RULE_UNUSED_ENTRY, (0,), 17, None, 0.01),
     (RULE_UNUSED_ENTRY, (0,), 137, None, 0.01)),
    (lambda m: _bump(m, 0, 1, _ROUNDED),
     (RULE_UNUSED_ENTRY, (0,), 17, None, abs(_ROUNDED)),
     (RULE_UNUSED_ENTRY, (0,), 137, None, abs(_ROUNDED))),
]


@pytest.mark.parametrize("edit, pure, mixed", _FAILURES)
def test_every_failure_path_of_both_chains(edit, pure, mixed):
    rdms = edited(exact_rdms(P4), frozenset({0, 1}), edit)
    for chain, (rule, indices, steps, wording, residual) in (
            (forcing_chain_pure, pure), (forcing_chain_mixed, mixed)):
        report = chain(P4, P4_GENS, rdms)
        assert report.status == INCONSISTENT and report.state is None
        last = report.forcing_log[-1]
        assert (last.rule, last.generator, last.indices) == (rule, 0, indices)
        assert len(report.forcing_log) == steps
        if wording is None:
            assert report.message == (f"constraint on the support of generator 0 "
                                      f"deviates by {residual:.3g} outside the "
                                      f"forcing chain")
        else:
            assert report.message == (f"{wording} deviates by {residual:.3g} on "
                                      f"the support of generator 0")
        assert report.max_residual == residual


@pytest.mark.parametrize("edit, pure, mixed", [(None, None, None)] + _FAILURES)
def test_stages_are_walked_only_to_name_a_failure(edit, pure, mixed, monkeypatch):
    # The tables decide: an exact family computes no stage deviation, and a
    # failing one walks the stages to name the step _FAILURES expects.
    import stabdet.determination as determination
    calls = Counter()
    for name in ("_forced_deviations", "_deviations"):
        def counted(*args, f=getattr(determination, name), name=name):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(determination, name, counted)
    rdms = exact_rdms(P4)
    if edit is not None:
        rdms = edited(rdms, frozenset({0, 1}), edit)
    for chain, expected in ((forcing_chain_pure, pure), (forcing_chain_mixed, mixed)):
        calls.clear()
        report = chain(P4, P4_GENS, rdms)
        if expected is None:
            assert report.status == DETERMINED and report.max_residual == 0.0
            assert not calls
        else:
            assert calls["_forced_deviations"] and calls["_deviations"]
            last = report.forcing_log[-1]
            assert (last.rule, last.indices) == expected[:2]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.integers(-20, -1))
def test_magnitude_column_never_exceeds_the_table_entry(n, seed, exponent):
    # Why the tables decide: column 2, ||c| - 2^-|W||, is at most the table
    # entry |c - M| at the same position, column 3, as |M| = 2^-|W| there.
    rng = np.random.default_rng(seed)
    g = random_graph(n, rng)
    gens = recombine_generators(canonical_generators(g), random_invertible_f2(n, rng))
    blocks = {}
    for m in gens.generators:
        w = support(m) | {int(rng.integers(n))}
        c = stabilizer_rdm(gens, w)
        blocks[w] = c + 10.0 ** exponent * (rng.normal(size=c.shape)
                                            + 1j * rng.normal(size=c.shape))
    setup, failure = _prepare_chain(g, gens, RdmConstraintSet(n, blocks), 1.0)
    assert failure is None
    for s in range(n):
        devs = _deviations(setup, s, np.arange(1 << n))
        assert np.all(devs[:, 2] <= devs[:, 3])


def test_walk_gathers_only_generators_of_failing_tables(monkeypatch):
    # So by the bound above, a generator whose table is within tol has no
    # failing step: the walk gathers deviations for the others alone.  In P4
    # only generator 0 reads the block on {0, 1}.
    import stabdet.determination as determination
    walked = []

    def counted(setup, s, idx, f=determination._deviations):
        walked.append(s)
        return f(setup, s, idx)
    monkeypatch.setattr(determination, "_deviations", counted)
    rdms = edited(exact_rdms(P4), frozenset({0, 1}), lambda m: _bump(m, 0, 1))
    for chain in (forcing_chain_pure, forcing_chain_mixed):
        walked.clear()
        report = chain(P4, P4_GENS, rdms)
        assert report.status == INCONSISTENT and report.forcing_log[-1].generator == 0
        assert set(walked) == {0}


def test_unread_block_is_checked():
    # No generator reads {0, 3}, where P4's marginal is I/4; a valid state
    # there that is not I/4 still contradicts the graph state.
    rdms = RdmConstraintSet(4, {**exact_rdms(P4).constraints,
                                frozenset({0, 3}): np.diag([1, 0, 0, 0]).astype(complex)})
    for chain in (forcing_chain_pure, forcing_chain_mixed):
        report = chain(P4, P4_GENS, rdms)
        assert report.status == INCONSISTENT and report.state is None
        last = report.forcing_log[-1]
        assert (last.rule, last.generator, last.indices) == (RULE_UNUSED_ENTRY, None, (0, 3))
        assert report.message == ("constraint on qubits [0, 3] deviates by 0.75 "
                                  "outside the forcing chain")
        assert report.max_residual == 0.75


def test_superset_block_is_checked_in_full():
    # X0 X3 lies inside no generator support, so the partial trace of the
    # full window onto any of them hides it; the window itself does not.
    x = np.array([[0, 1], [1, 0]])
    window = P4_RHO + 0.05 * np.kron(np.kron(x, np.eye(4)), x) / 16
    rdms = RdmConstraintSet(4, {frozenset(range(4)): window})
    for chain in (forcing_chain_pure, forcing_chain_mixed):
        report = chain(P4, P4_GENS, rdms)
        assert report.status == INCONSISTENT and report.state is None
        last = report.forcing_log[-1]
        assert (last.rule, last.generator, last.indices) == (RULE_UNUSED_ENTRY, None,
                                                              (0, 1, 2, 3))
        assert report.message == ("constraint on qubits [0, 1, 2, 3] deviates by "
                                  "0.00313 outside the forcing chain")


@pytest.mark.parametrize("edit", [None] + [edit for edit, _, _ in _FAILURES],
                         ids=["exact", "diagonal", "sign", "magnitude", "unused-entry",
                              "rounded-residual"])
def test_log_indexing_matches_iteration(edit):
    rdms = exact_rdms(P4)
    if edit is not None:
        rdms = edited(rdms, frozenset({0, 1}), edit)
    for chain in (forcing_chain_pure, forcing_chain_mixed):
        log = chain(P4, P4_GENS, rdms).forcing_log
        steps = list(log)
        assert len(steps) == len(log)
        assert [log[k] for k in range(len(log))] == steps
        assert [log[-k] for k in range(1, len(log) + 1)] == steps[::-1]
        assert list(reversed(log)) == steps[::-1]
        assert Counter(step.rule for step in steps) == log.counts()
        for k in (len(log), -len(log) - 1):
            with pytest.raises(IndexError):
                log[k]


def test_graph_group_generators_have_independent_x_parts():
    # Why the chains need no basis check: every accepted generator is the group
    # element named by its x-part, so n independent generators have n
    # independent x-parts.
    rng = np.random.default_rng(37)
    for g in _all_graphs(4):
        canon = canonical_generators(g)
        for gens in [canon] + [recombine_generators(canon, random_invertible_f2(g.n, rng))
                               for _ in range(3)]:
            _check_graph_group(g, gens)
            assert len(eliminate([m.v for m in gens.generators])[0]) == g.n


def _all_graphs(max_n):
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph.from_edges(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


def _graph_corpus():
    """All graphs on 1-4 vertices and 10 random graphs for each n = 5-8."""
    yield from _all_graphs(4)
    rng = np.random.default_rng(58)
    for n in range(5, 9):
        for _ in range(10):
            yield random_graph(n, rng)


def test_closing_check_marginal_is_the_closed_form():
    # The closing check compares each constraint with the reconstructed
    # state's marginal.  Fed the closed-form RDMs, its largest deviation is
    # exactly 0.0, so on every support the two matrices are np.array_equal.
    rng = np.random.default_rng(59)
    cases = 0
    for g in _graph_corpus():
        canon = canonical_generators(g)
        for gens in (canon, recombine_generators(canon, random_invertible_f2(g.n, rng))):
            rdms = RdmConstraintSet(g.n, {support(m): stabilizer_rdm(gens, support(m))
                                          for m in gens.generators})
            setup, failure = _prepare_chain(g, gens, rdms, 1e-12)
            assert failure is None
            report = _report(setup, 1e-12, [], [], lambda: None)
            assert report.status == DETERMINED and report.max_residual == 0.0
            cases += 1
    assert cases == 2 * (75 + 40)


@pytest.mark.parametrize("family", ["exact", "superset"])
def test_chains_compute_one_closed_form_marginal_per_block(family, monkeypatch):
    # Each block is compared once with the generators' closed-form marginal
    # on its own qubits, shared by both chains and every tol, and no dense
    # partial trace is taken: a superset block is read directly.
    import stabdet.determination as determination
    omegas = P4_SUPPORTS if family == "exact" else [frozenset(range(4))]
    rdms = RdmConstraintSet(4, {w: stabilizer_rdm(P4_GENS, w) for w in omegas})
    calls = []

    def counting(f):
        def counted(*args):
            calls.append((f.__name__, args[1]))
            return f(*args)
        return counted

    for name in ("_subgroup_sum", "dense_partial_trace"):
        monkeypatch.setattr(determination, name, counting(getattr(determination, name)))
    for tol in (1e-12, 1e-9, 1e-3):
        for chain in (forcing_chain_pure, forcing_chain_mixed):
            assert chain(P4, P4_GENS, rdms, tol=tol).status == DETERMINED
    assert calls == [("_subgroup_sum", w) for w in omegas]



def test_a_family_and_its_chains_render_each_marginal_once(monkeypatch):
    # The family's blocks and the chains' closed-form marginals are the same
    # (set, omega) sums: the set renders each once, and both chains, every
    # tol and an edited family on the same set read the kept one.
    import stabdet.stabilizer as stabilizer
    rendered = Counter()

    def counting(gens, omega, f=stabilizer._render_sum):
        rendered[omega] += 1
        return f(gens, omega)

    monkeypatch.setattr(stabilizer, "_render_sum", counting)
    g = Graph.star(5)
    gens = recombine_generators(canonical_generators(g),
                                random_invertible_f2(5, np.random.default_rng(5)))
    supports = {support(m) for m in gens.generators}
    rdms = RdmConstraintSet(5, {w: stabilizer_rdm(gens, w) for w in supports})
    w = min(supports, key=sorted)
    for family in (rdms, edited(rdms, w, lambda m: _bump(m, 0, 1, 1e-6))):
        for tol in (1e-9, 1e-3):
            for chain in (forcing_chain_pure, forcing_chain_mixed):
                chain(g, gens, family, tol=tol)
    assert forcing_chain_mixed(g, gens, rdms).status == DETERMINED
    assert rendered == Counter({w: 1 for w in supports})


# --- one setup per family, shared by both chains ---

def test_both_chains_share_one_graph_side(monkeypatch):
    # The group check depends on (gens, graph) alone: one family's pure and
    # mixed chains run it once.  A Determined verdict takes no sign vector;
    # each report takes it once its state is read.
    import stabdet.determination as determination
    forcing_chain_pure(P4, P4_GENS, exact_rdms(P4))  # another family first
    g = Graph.star(4)
    gens, rdms = canonical_generators(g), exact_rdms(g)
    calls = Counter()
    for name in ("_check_graph_group", "sign_vector"):
        def counted(*args, f=getattr(determination, name), name=name):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(determination, name, counted)
    pure, mixed = (chain(g, gens, rdms) for chain in (forcing_chain_pure, forcing_chain_mixed))
    assert pure.status == mixed.status == DETERMINED
    assert calls == Counter({"_check_graph_group": 1})
    assert np.max(np.abs(mixed.state - density_matrix(gens))) < 1e-12
    assert mixed.state is mixed.state
    assert calls == Counter({"_check_graph_group": 1, "sign_vector": 1})


def test_one_setup_per_family_across_chains_and_tols(monkeypatch):
    # tol is read only by the verdict: one family through both chains at
    # three tolerances checks the group and takes each block's closed-form
    # marginal once, the failing walks share one sign vector, and every call
    # still returns a fresh report.
    import stabdet.determination as determination
    calls = Counter()
    for name in ("_check_graph_group", "sign_vector", "_subgroup_sum"):
        def counted(*args, f=getattr(determination, name), name=name):
            calls[args[1] if name == "_subgroup_sum" else name] += 1
            return f(*args)
        monkeypatch.setattr(determination, name, counted)
    rdms = edited(exact_rdms(P4), frozenset({0, 1}), lambda m: _bump(m, 0, 1, 1e-6))
    reports = [chain(P4, P4_GENS, rdms, tol=tol) for tol in (1e-12, 1e-9, 1e-3)
               for chain in (forcing_chain_pure, forcing_chain_mixed)]
    assert [r.status for r in reports] == [INCONSISTENT] * 4 + [DETERMINED] * 2
    assert calls == Counter({"_check_graph_group": 1, "sign_vector": 1,
                             **{w: 1 for w in P4_SUPPORTS}})
    again = forcing_chain_pure(P4, P4_GENS, rdms, tol=1e-3)
    assert again is not reports[4] and again.state is not reports[4].state
    again.status = "Corrupted"
    assert forcing_chain_pure(P4, P4_GENS, rdms, tol=1e-3).status == DETERMINED


def test_edits_cannot_reach_a_family():
    # A family copies its blocks into read-only arrays in a read-only
    # mapping, so the setup it keeps stays true to it: neither assignment,
    # an in-place write, nor an edit of the caller's arrays changes a verdict.
    source = {w: stabilizer_rdm(P4_GENS, w).copy() for w in P4_SUPPORTS}
    rdms = RdmConstraintSet(4, source)
    for chain in (forcing_chain_pure, forcing_chain_mixed):
        assert chain(P4, P4_GENS, rdms).status == DETERMINED
    key = frozenset({0, 1})
    with pytest.raises(TypeError):
        rdms.constraints[key] = np.eye(4) / 4
    with pytest.raises(ValueError, match="read-only"):
        rdms.constraints[key][0, 1] += 0.01
    with pytest.raises(FrozenInstanceError):
        rdms.constraints = {}
    source[key][0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        RdmConstraintSet(4, source)
    for chain in (forcing_chain_pure, forcing_chain_mixed):
        assert chain(P4, P4_GENS, rdms).status == DETERMINED
    source[key] = np.zeros((3, 3))
    for chain in (forcing_chain_pure, forcing_chain_mixed):
        assert chain(P4, P4_GENS, rdms).status == DETERMINED
    assert np.array_equal(rdms.constraints[key], stabilizer_rdm(P4_GENS, key))


def test_a_family_holds_the_kept_marginals_themselves(monkeypatch):
    # stabilizer_rdm returns the set's kept marginal, read-only and owning
    # its memory: a family holds that very array, and its setup knows such a
    # block deviates by exactly 0.0 with no M - C pass.  A .copy() of it is
    # a block like any other: copied, and compared in full, to the same 0.0.
    kept = {w: stabilizer_rdm(P4_GENS, w) for w in P4_SUPPORTS}
    shared = RdmConstraintSet(4, kept)
    copied = RdmConstraintSet(4, {w: m.copy() for w, m in kept.items()})
    assert all(shared.constraints[w] is m for w, m in kept.items())
    assert not any(np.shares_memory(copied.constraints[w], m) for w, m in kept.items())
    passes = []

    def counted(*args, f=np.hypot, **kwargs):
        passes.append(args[0].shape)
        return f(*args, **kwargs)

    monkeypatch.setattr(np, "hypot", counted)
    assert list(shared._setup(P4, P4_GENS).worst.values()) == [0.0] * 4
    assert passes == []
    assert list(copied._setup(P4, P4_GENS).worst.values()) == [0.0] * 4
    assert sorted(passes) == sorted(m.shape for m in kept.values())


def _read_only_copy(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("block", [
    lambda m: m.copy(),
    lambda m: m[:],
    lambda m: np.broadcast_to(m, m.shape),
    lambda m: _read_only_copy(m.astype(np.complex64)),
    lambda m: _read_only_copy(m.real),
    lambda m: m.tolist(),
], ids=["writeable", "view", "broadcast", "complex64", "float", "list"])
def test_other_blocks_are_copied(block):
    # Only a read-only complex128 ndarray owning its memory is held as given:
    # a writeable array, a read-only view and any other dtype or type are
    # copied into a new read-only complex array, equal to the marginal.
    w = frozenset({0, 1})
    m = stabilizer_rdm(P4_GENS, w)
    given = block(m)
    held = RdmConstraintSet(4, {w: given}).constraints[w]
    assert held is not given and held is not m
    assert held.dtype == complex and held.flags.owndata and not held.flags.writeable
    assert not np.shares_memory(held, m) and np.array_equal(held, m)


def test_duplicate_blocks_are_rejected():
    block = np.eye(4) / 4
    with pytest.raises(ValueError, match=r"constraint on \[0, 1\] is given twice"):
        RdmConstraintSet(2, {(0, 1): block, (1, 0): block})


def test_blocks_must_match_their_index_set():
    with pytest.raises(ValueError, match=r"constraint on \[0\] must be 2x2"):
        RdmConstraintSet(2, {(0,): np.eye(4) / 4})


def test_graph_side_is_keyed_by_the_graph_too():
    # The same generators on another graph are checked again, and a failed
    # check is not remembered.
    star = Graph.star(4)
    assert forcing_chain_pure(P4, P4_GENS, exact_rdms(P4)).status == DETERMINED
    for chain in (forcing_chain_pure, forcing_chain_mixed, forcing_chain_pure):
        with pytest.raises(ValueError, match="not an element of the graph's group"):
            chain(star, P4_GENS, exact_rdms(star))
    assert forcing_chain_mixed(P4, P4_GENS, exact_rdms(P4)).status == DETERMINED


def test_setup_is_read_only_and_keeps_no_marginal():
    # The setup holds the family's own blocks, one float per block and no
    # array of its own until a walk: then the signs and the forcing order,
    # 1-D and read-only, so it can hold no state marginal.
    rdms = edited(exact_rdms(P4), frozenset({1, 2, 3}), lambda m: _bump(m, 0, 0))
    setup = rdms._setup(P4, P4_GENS)
    assert setup.blocks is rdms.constraints
    assert list(setup.worst) == P4_SUPPORTS
    assert all(type(dev) is float for dev in setup.worst.values())
    assert not [a for a in vars(setup).values() if isinstance(a, (np.ndarray, tuple))]
    assert forcing_chain_mixed(P4, P4_GENS, rdms).status == INCONSISTENT
    assert rdms._setup(P4, P4_GENS) is setup and {"signs", "order"} <= vars(setup).keys()
    own = [setup.signs, *setup.order]
    assert all(a.ndim == 1 and len(a) == 16 and not a.flags.writeable for a in own)
    assert not any(a.flags.writeable for a in rdms.constraints.values())


def _closed_form_family(g):
    gens = canonical_generators(g)
    return gens, RdmConstraintSet(g.n, {support(m): stabilizer_rdm(gens, support(m))
                                        for m in gens.generators})


def test_large_exact_family_touches_no_dense_array(monkeypatch):
    # A Determined verdict reads only the blocks: at n = 1000 both chains
    # decide in poly(n), with no sign vector, and the log counts its
    # 2^1000-odd steps without building one.
    import stabdet.determination as determination
    g = Graph.path(1000)
    gens, rdms = _closed_form_family(g)
    monkeypatch.setattr(determination, "sign_vector", lambda *args: pytest.fail("signs built"))
    tracemalloc.start()
    try:
        reports = [chain(g, gens, rdms) for chain in (forcing_chain_pure, forcing_chain_mixed)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.status for r in reports] == [DETERMINED, DETERMINED]
    assert [r.max_residual for r in reports] == [0.0, 0.0]
    assert reports[0].forcing_log.steps == 2 ** 1000
    assert reports[1].forcing_log.steps == 2 ** 1000 * (2 ** 1000 + 1) // 2
    assert peak < 10 * 2 ** 20
    for report in reports:
        with pytest.raises(ValueError, match="dense rendering cap exceeded"):
            report.state


def test_large_failing_family_names_its_block_without_a_walk(monkeypatch):
    # Above DENSE_VECTOR_CAP qubits no chain is walked: the report names the
    # first failing block and its largest deviation.
    import stabdet.determination as determination
    g = Graph.path(30)
    gens, rdms = _closed_form_family(g)
    rdms = edited(rdms, frozenset({4, 5, 6}), lambda m: _bump(m, 1, 2, 0.05))
    for name in ("sign_vector", "_forced_deviations", "_deviations"):
        monkeypatch.setattr(determination, name, lambda *args: pytest.fail("walked"))
    for chain in (forcing_chain_pure, forcing_chain_mixed):
        report = chain(g, gens, rdms)
        assert report.status == INCONSISTENT and report.state is None
        assert list(report.forcing_log) == [ForcingStep((5,), RULE_BLOCK_DEVIATION, 5)]
        assert report.max_residual == 0.05
        assert report.message == ("constraint on the support of generator 5 deviates by "
                                  "0.05; no forcing chain is walked above 12 qubits")


@pytest.mark.parametrize("n", [1, 5, 8, 12])
def test_state_is_built_on_read(n):
    # The state of a Determined report is the graph state's vector (pure)
    # and its outer product (mixed), the latter checked up to n = 8 here, as
    # it takes 16 * 4^n bytes.
    g = random_graph(n, np.random.default_rng(n))
    gens, rdms = _closed_form_family(g)
    vector = state_vector(g)
    assert np.array_equal(forcing_chain_pure(g, gens, rdms).state, vector)
    if n <= 8:
        rho = forcing_chain_mixed(g, gens, rdms).state
        assert np.max(np.abs(rho - np.outer(vector, vector.conj()))) < 1e-15


def test_log_counts_steps_beyond_len():
    # len() is a C ssize_t; steps is an int, so a log past 2^63 - 1 steps
    # still answers truth, indexing, counts and repr.
    steps = 4 ** 40 // 2
    log = ForcingLog([_Run(RULE_MINOR_COMPLETION, steps,
                           lambda k: ForcingStep((k,), RULE_MINOR_COMPLETION))])
    assert log.steps == steps and log
    assert log[-1] == ForcingStep((steps - 1,), RULE_MINOR_COMPLETION)
    assert log[0].indices == (0,)
    assert next(reversed(log)) == log[-1]
    assert log.counts() == {RULE_MINOR_COMPLETION: steps}
    assert repr(log) == f"ForcingLog({steps} steps, {{'{RULE_MINOR_COMPLETION}': {steps}}})"
    with pytest.raises(OverflowError):
        len(log)
    with pytest.raises(IndexError):
        log[steps]
    assert not ForcingLog() and ForcingLog().steps == 0


def test_reversed_log_needs_no_len():
    # Reversed, a log walks its runs from the end: at n = 40 the last step
    # of either chain needs the 2^40 forcing order, so reversed refuses it
    # as log[-1] does, where len() would overflow on the mixed chain's log.
    g = Graph.path(40)
    gens, rdms = _closed_form_family(g)
    for chain in (forcing_chain_pure, forcing_chain_mixed):
        log = chain(g, gens, rdms).forcing_log
        for last in (lambda: log[-1], lambda: next(reversed(log))):
            with pytest.raises(ValueError, match="dense rendering cap exceeded: n=40 > 12"):
                last()


def _held_by_a_family(g, gens, blocks):
    """(statuses of both chains, bytes the family holds, bytes left once it
    is dropped), traced from just before it is built; blocks is emptied, so
    the family's references are the only ones the caller leaves."""
    tracemalloc.start()
    try:
        rdms = RdmConstraintSet(g.n, blocks)
        blocks.clear()
        statuses = [chain(g, gens, rdms).status
                    for chain in (forcing_chain_pure, forcing_chain_mixed)]
        held = tracemalloc.get_traced_memory()[0]
        del rdms
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return statuses, held, retained


def test_a_dropped_family_leaves_nothing_behind():
    # The setup lives on the family: held with the set's own full-window
    # marginal, the family holds that very array and well under a MiB more,
    # while a writeable copy of it costs the family its own 16 MiB copy.
    # Once the caller drops the family, nothing is left.
    g = Graph.path(10)
    gens = canonical_generators(g)
    window = stabilizer_rdm(gens, range(10))
    for block, least, most in ((window, 0, 0.1), (window.copy(), 16, 16.5)):
        statuses, held, retained = _held_by_a_family(g, gens, {frozenset(range(10)): block})
        assert statuses == [DETERMINED, DETERMINED]
        assert least * 2 ** 20 <= held <= most * 2 ** 20
        assert retained < 0.1 * 2 ** 20


def test_a_large_family_holds_the_kept_marginals_once():
    # The exact 1000-vertex path family built from stabilizer_rdm holds the
    # set's kept marginals, about 1 MiB of blocks, and no copy of them: with
    # the caller's dict dropped, the family and its setup take less than
    # the blocks' bytes, which copies alone would take.
    g = Graph.path(1000)
    gens = canonical_generators(g)
    blocks = {support(m): stabilizer_rdm(gens, support(m)) for m in gens.generators}
    size = sum(m.nbytes for m in blocks.values())
    statuses, held, retained = _held_by_a_family(g, gens, blocks)
    assert statuses == [DETERMINED, DETERMINED]
    assert size > 0.95 * 2 ** 20
    assert held < size
    assert retained < 0.1 * 2 ** 20


# --- kernel analysis ---

def test_kernel_single_qubit_is_trivial():
    assert rdm_kernel(1, [{0}]).dimension == 0


def test_kernel_cap():
    with pytest.raises(ValueError, match="kernel analysis capped at n = 6"):
        rdm_kernel(7, [{0}])


def test_kernel_dimension_by_rank_nullity():
    for n, omegas in ((4, P4_SUPPORTS),
                      (4, [{0, 1, 2}, {0, 3}, {1, 3}, {2, 3}]),
                      (3, [{0, 1}, {1, 2}])):
        kb = rdm_kernel(n, omegas)
        # independent recount: assemble the constraint operator and use the
        # generic rank routine
        rows = []
        for b in hermitian_basis(n):
            col = [np.trace(b).real]
            for w in omegas:
                pt = ptrace_by_summation(b, sorted(w), n)
                col.extend(pt.real.ravel())
                col.extend(pt.imag.ravel())
            rows.append(col)
        a = np.array(rows).T
        assert kb.dimension == 4 ** n - np.linalg.matrix_rank(a)


def test_kernel_basis_elements_are_invisible():
    omegas = [{0, 1}, {1, 2}]
    kb = rdm_kernel(3, omegas)
    for delta in kb.elements:
        assert np.max(np.abs(delta - delta.conj().T)) < 1e-12
        assert abs(np.trace(delta)) < 1e-12
        for w in omegas:
            assert np.max(np.abs(dense_partial_trace(delta, w))) < 1e-12


def test_kernel_basis_is_orthonormal():
    kb = rdm_kernel(2, [{0}])
    gram = np.array([[np.trace(a.conj().T @ b).real for b in kb.elements]
                     for a in kb.elements])
    assert np.max(np.abs(gram - np.eye(kb.dimension))) < 1e-10


def test_kernel_contains_counterexample_difference():
    omegas = [{0, 1, 2}, {0, 3}, {1, 3}, {2, 3}]
    kb = rdm_kernel(4, omegas)
    assert kb.dimension >= 1
    rho_i = density_matrix(GeneratorSet.from_strings(4, ["XZII", "ZXZI", "IIZX"]))
    delta = P4_RHO - rho_i
    coeffs = [np.trace(b.conj().T @ delta).real for b in kb.elements]
    recon = sum(c * b for c, b in zip(coeffs, kb.elements))
    assert np.max(np.abs(recon - delta)) < 1e-10


# --- exhaustive impostor scan ---

def test_uniqueness_star3():
    g = Graph.star(3)
    rho = density_matrix(canonical_generators(g))
    supports = [support(m) for m in canonical_generators(g).generators]
    assert uniqueness_by_enumeration(rho, supports, 3)


def test_uniqueness_fails_for_single_qubit_marginals():
    g = Graph.from_edges(2, [(0, 1)])
    rho = density_matrix(canonical_generators(g))
    assert not uniqueness_by_enumeration(rho, [{0}, {1}], 2)


def test_uniqueness_trivial_single_qubit():
    assert uniqueness_by_enumeration(np.diag([1.0, 0.0]).astype(complex), [{0}], 1)


# --- counterexample ---

def test_counterexample_report():
    report = verify_counterexample()
    assert report.states_differ
    assert report.trace_distance > 0.1
    assert report.marginals_agree
    assert report.full_set_determined
    assert report.all_pass
    # both groups share the same elements inside {0,1,2}, so only the
    # {1,2,3} marginal tells the two states apart
    separating = {w for w, dev in report.distinguishing_supports.items()
                  if dev > 1e-9}
    assert separating == {frozenset({1, 2, 3})}


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(a, b) - 1.0) < 1e-12
    assert trace_distance(a, a) < 1e-12


# --- constraint file format ---

def test_rdm_file_round_trip():
    rdms = exact_rdms(P4)
    again = parse_rdm_file(format_rdm_file(rdms), 4)
    assert set(again.constraints) == set(rdms.constraints)
    for w in rdms.constraints:
        assert np.max(np.abs(again.constraints[w] - rdms.constraints[w])) < 1e-11


def test_a_parsed_file_is_held_as_parsed(monkeypatch):
    # parse_rdm_file marks each parsed block read-only, so the family holds
    # it as parsed, not a copy beside it.
    import stabdet.determination as determination
    parsed = []

    def parsing(*args, f=determination.parse_density_matrix):
        parsed.append(f(*args))
        return parsed[-1]

    monkeypatch.setattr(determination, "parse_density_matrix", parsing)
    rdms = parse_rdm_file(format_rdm_file(exact_rdms(P4)), 4)
    held = rdms.constraints.values()
    assert len(parsed) == len(held) == 4
    assert all(any(block is p for p in parsed) for block in held)


def test_rdm_file_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rdm_file("not a block\n", 2)


def test_rdm_file_rejects_duplicate_block():
    block = "dim=4\n" + "0.25+0j 0+0j 0+0j 0+0j\n" * 4
    text = "omega: 0,1\n" + block + "omega: 1,0\n" + block
    with pytest.raises(ValueError, match="line 7: repeated block"):
        parse_rdm_file(text, 2)
