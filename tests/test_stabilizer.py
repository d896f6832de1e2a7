import hashlib
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabdet.f2_pauli import (
    PauliOperator,
    dense_matrix,
    eliminate,
    format_pauli,
    from_binary,
    multiply,
    parse_pauli,
    row_product,
    support,
    to_binary,
)
from stabdet.stabilizer import (
    GeneratorSet,
    _products,
    check_density_matrix,
    density_matrix,
    enumerate_group,
    enumerate_stabilizer_states,
    format_density_matrix,
    format_generator_file,
    minimal_support_set,
    parse_density_matrix,
    parse_generator_file,
    product,
    recombine_generators,
    stabilizer_rdm,
    validate,
)
from stabdet.graph_state import Graph, canonical_generators, sign_vector, state_vector
from stabdet.determination import dense_partial_trace

from conftest import (
    group_key,
    subgroup_sum_by_kron,
    ptrace_by_summation,
    random_graph,
    random_invertible_f2,
    random_pauli,
    random_stabilizer_set,
)

GHZ3 = GeneratorSet.from_strings(3, ["XXX", "ZZI", "IZZ"])


def ghz_generators(n):
    strings = ["X" * n]
    for j in range(n - 1):
        strings.append("I" * j + "ZZ" + "I" * (n - 2 - j))
    return GeneratorSet.from_strings(n, strings)


def ghz_vector(n):
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = vec[-1] = 1 / np.sqrt(2)
    return vec


# --- validation ---

def test_validate_ghz3():
    assert validate(GHZ3).ok


def test_validate_dependent_set():
    report = validate(GeneratorSet.from_strings(2, ["XX", "YY", "ZZ"]))
    assert not report.ok
    assert not report.independent
    # the dependency realizes -I: XX * YY = -ZZ
    assert multiply(parse_pauli("XX"), parse_pauli("YY")) == parse_pauli("-ZZ")


def test_validate_anticommuting():
    report = validate(GeneratorSet.from_strings(1, ["X", "Z"]))
    assert not report.ok
    assert not report.commuting


def test_validate_imaginary_phase():
    report = validate(GeneratorSet((from_binary((0,), (1,), 1j),), 1))
    assert not report.hermitian


def test_generator_set_is_validated_once(monkeypatch):
    import stabdet.stabilizer as stabilizer
    from stabdet.graph_state import lc_to_graph
    gens = canonical_generators(Graph.path(20))
    seen = []

    def counting(arg):
        seen.append(arg)
        return validate(arg)

    monkeypatch.setattr(stabilizer, "validate", counting)
    for m in gens.generators:
        stabilizer_rdm(gens, support(m))
    lc_to_graph(gens)
    # the S_omega bases derived from gens are not validated again
    assert len(seen) == 1 and seen[0] is gens
    # a cached failing report still fails every call
    bad = GeneratorSet.from_strings(1, ["X", "Z"])
    for _ in range(2):
        with pytest.raises(ValueError, match="anticommute"):
            stabilizer_rdm(bad, {0})


def test_one_validation_and_one_form_per_set(monkeypatch):
    # the marginals op: validate, lc_to_graph, then three RDMs
    import sys
    import stabdet.f2_pauli as f2_pauli
    import stabdet.stabilizer as stabilizer
    from stabdet.graph_state import lc_to_graph
    gens = random_stabilizer_set(8, np.random.default_rng(14))
    calls = {"commutes": 0, "form": 0, "multiply": 0, "pauli": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(stabilizer, "commutes", counted("commutes", stabilizer.commutes))
    monkeypatch.setattr(stabilizer, "_pivoted_form",
                        counted("form", stabilizer._pivoted_form))
    # every Pauli object is made by _pauli or by the checked constructor
    wrappers = {"multiply": counted("multiply", f2_pauli.multiply),
                "_pauli": counted("pauli", f2_pauli._pauli)}
    for module in [m for name, m in sys.modules.items() if name.startswith("stabdet.")]:
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(f2_pauli.PauliOperator, "__post_init__",
                        counted("pauli", f2_pauli.PauliOperator.__post_init__))
    report = validate(gens)
    lc_to_graph(gens)
    for omega in ([0, 1], [2, 5, 7], [3]):
        stabilizer_rdm(gens, omega)
    # one validation checks each of the 28 pairs once; the elimination, the
    # reduction to graph form and the subgroup sums act on int rows, so no
    # product is a Pauli object and at most the n form rows are made
    assert calls["commutes"] == 8 * 7 // 2 and calls["form"] == 1
    assert calls["multiply"] == 0 and calls["pauli"] <= 8
    assert gens.validation is report and validate(gens) is report
    assert isinstance(report.problems, tuple)
    bad = validate(GeneratorSet.from_strings(2, ["XI", "ZI", "XI"]))
    assert bad.problems == ("generators 0 and 1 anticommute",
                            "generators 1 and 2 anticommute",
                            "binary parts are linearly dependent over GF(2)")


# --- the pivoted form ---

def _pivot_qubit(pivot, n):
    return n - pivot.bit_length()


def test_every_form_row_owns_its_pivot_and_the_group_is_kept():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        full = random_stabilizer_set(n, rng)
        gens = GeneratorSet(full.generators[:int(rng.integers(0, n + 1))], n)
        rows = [row for _, row in gens.rows]
        for i, (pivot, (_, u, v)) in enumerate(gens.rows):
            others = rows[:i] + rows[i + 1:]
            assert pivot & (pivot - 1) == 0 and 0 <= _pivot_qubit(pivot, n) < n
            owns_x = v & pivot and not any(h[2] & pivot for h in others)
            owns_z = u & pivot and not any(h[1] & pivot for h in others)
            assert owns_x or owns_z
        by_qubit = sorted((_pivot_qubit(pivot, n), i) for i, (pivot, _) in enumerate(gens.rows))
        assert [(j, i) for j, at in sorted(gens.pivots.items())
                for i in range(len(rows)) if at >> i & 1] == by_qubit
        assert group_key(enumerate_group(GeneratorSet(
            tuple(PauliOperator(*row, n) for row in rows), n))) == \
            group_key(enumerate_group(gens))
        for _ in range(3):
            size = int(rng.integers(1, n + 1))
            omega = sorted(rng.choice(n, size=size, replace=False).tolist())
            pivoting = [row for pivot, row in gens.rows if _pivot_qubit(pivot, n) in omega]
            assert len(pivoting) <= 2 * len(omega)
            assert np.array_equal(stabilizer_rdm(gens, omega),
                                  subgroup_sum_by_kron(gens, omega))


def test_rdm_eliminates_at_most_two_rows_per_qubit_of_omega(monkeypatch):
    import stabdet.stabilizer as stabilizer
    rng = np.random.default_rng(40)
    gens = random_stabilizer_set(40, rng)
    stabilizer_rdm(gens, [0])  # builds the form
    sizes = []

    def recording(rows, **kwargs):
        rows = list(rows)
        sizes.append(len(rows))
        return eliminate(rows, **kwargs)

    monkeypatch.setattr(stabilizer, "eliminate", recording)
    for size in (1, 2, 3, 4):
        omega = rng.choice(40, size=size, replace=False).tolist()
        sizes.clear()
        stabilizer_rdm(gens, omega)
        assert sizes and max(sizes) <= 2 * size


# --- group enumeration ---

def test_enumerate_single_z():
    group = enumerate_group(GeneratorSet.from_strings(1, ["Z"]))
    assert group_key(group) == group_key([PauliOperator(0, 0, 0, 1), parse_pauli("Z")])


def test_enumerate_ghz3_stabilizes_state():
    group = enumerate_group(GHZ3)
    assert len(group) == 8
    names = {format_pauli(m) for m in group}
    assert {"XXX", "ZZI", "IZZ", "ZIZ", "-YYX", "III"} <= names
    vec = ghz_vector(3)
    for m in group:
        assert np.allclose(dense_matrix(m) @ vec, vec)
    assert PauliOperator(0, 0, 0, 3) in group
    assert parse_pauli("-III") not in group


def test_enumeration_cap_holds_before_allocating():
    gens = canonical_generators(Graph.path(21))
    with pytest.raises(ValueError, match="enumeration cap exceeded"):
        enumerate_group(gens)
    # all 21 qubits: S_omega has 21 shifts, so the walk refuses before the
    # 2^21-entry diagonal or the 2^21 x 2^21 matrix exists
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="enumeration cap exceeded"):
            stabilizer_rdm(gens, range(21), cap=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert not gens.sums  # a render that raises keeps nothing


def test_enumerate_empty_set():
    group = enumerate_group(GeneratorSet((), 2))
    assert group_key(group) == group_key([PauliOperator(0, 0, 0, 2)])


# --- density matrices ---

def test_density_matrix_z():
    rho = density_matrix(GeneratorSet.from_strings(1, ["Z"]))
    assert np.allclose(rho, np.diag([1, 0]))


def test_density_matrix_ghz3_projector():
    vec = ghz_vector(3)
    assert np.max(np.abs(density_matrix(GHZ3) - np.outer(vec, vec.conj()))) < 1e-12


def test_density_matrix_impostor_rank2():
    rho = density_matrix(GeneratorSet.from_strings(4, ["XZII", "ZXZI", "IIZX"]))
    check_density_matrix(rho)
    # 3 generators on 4 qubits: rank 2^{4-3} = 2
    assert np.sum(np.linalg.eigvalsh(rho) > 1e-9) == 2


def test_density_matrix_rank_matches_generator_count():
    rng = np.random.default_rng(21)
    gens = random_stabilizer_set(4, rng)
    for l in range(5):
        partial = GeneratorSet(gens.generators[:l], 4)
        rho = density_matrix(partial)
        assert np.sum(np.linalg.eigvalsh(rho) > 1e-9) == 1 << (4 - l)


def test_group_elements_fix_projector():
    rng = np.random.default_rng(2)
    gens = random_stabilizer_set(3, rng)
    rho = density_matrix(gens)
    for m in enumerate_group(gens):
        assert np.max(np.abs(dense_matrix(m) @ rho - rho)) < 1e-12


# --- reduced density matrices ---

def test_rdm_ghz3():
    rho = stabilizer_rdm(GHZ3, [0, 1])
    assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]))


def test_rdm_full_set_is_density_matrix():
    assert np.allclose(stabilizer_rdm(GHZ3, [0, 1, 2]), density_matrix(GHZ3))


def test_rdm_matches_partial_trace_p4():
    gens = canonical_generators(Graph.path(4))
    rho = density_matrix(gens)
    got = stabilizer_rdm(gens, [0, 1, 2])
    want = ptrace_by_summation(rho, [0, 1, 2], 4)
    assert np.max(np.abs(got - want)) < 1e-12


def test_rdm_matches_partial_trace_random():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        gens = random_stabilizer_set(n, rng)
        rho = density_matrix(gens)
        size = int(rng.integers(1, n + 1))
        omega = sorted(rng.choice(n, size=size, replace=False).tolist())
        got = stabilizer_rdm(gens, omega)
        want = ptrace_by_summation(rho, omega, n)
        assert np.max(np.abs(got - want)) < 1e-12


def test_subgroup_sums_equal_the_per_element_oracle():
    rng = np.random.default_rng(43)
    with_y = 0
    for _ in range(40):
        n = int(rng.integers(1, 7))
        full = random_stabilizer_set(n, rng)
        gens = GeneratorSet(full.generators[:int(rng.integers(0, n + 1))], n)
        assert np.array_equal(density_matrix(gens), subgroup_sum_by_kron(gens, range(n)))
        for _ in range(3):
            size = int(rng.integers(1, n + 1))
            omega = sorted(rng.choice(n, size=size, replace=False).tolist())
            assert np.array_equal(stabilizer_rdm(gens, omega),
                                  subgroup_sum_by_kron(gens, omega))
        with_y += any(m.u & m.v for m in enumerate_group(gens))
    assert with_y >= 20
    empty = GeneratorSet((), 0)
    assert np.array_equal(density_matrix(empty), subgroup_sum_by_kron(empty, []))


def test_marginals_are_kept_read_only():
    # A set renders each marginal once and hands every caller the same
    # read-only array, so no caller can change what the next one reads.
    rng = np.random.default_rng(44)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        gens = random_stabilizer_set(n, rng)
        rho = subgroup_sum_by_kron(gens, range(n))
        for _ in range(3):
            size = int(rng.integers(1, n + 1))
            omega = sorted(rng.choice(n, size=size, replace=False).tolist())
            got = stabilizer_rdm(gens, omega)
            assert stabilizer_rdm(gens, omega[::-1]) is got
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = 1
            assert np.array_equal(got, ptrace_by_summation(rho, omega, n))
        assert density_matrix(gens) is stabilizer_rdm(gens, range(n))


def test_multi_pass_graph_state_marginal_is_the_projector():
    # On all n = 9, 10 qubits the 2^n elements fill 2^n entries each, 4^n /
    # 2^14 numpy passes: 16 and 64.  The render is exactly the outer product
    # of the graph state's signs over 2^n, at n = 10 that of state_vector.
    rng = np.random.default_rng(46)
    for n in (9, 10):
        g = random_graph(n, rng)
        signs = sign_vector(g)
        rho = density_matrix(canonical_generators(g))
        assert np.array_equal(rho, np.outer(signs, signs) / (1 << n))
    vector = state_vector(g)
    assert np.array_equal(rho, np.outer(vector, vector.conj()))


def test_multi_pass_general_form_marginal_equals_the_oracle():
    # An l < n general-form set whose S_omega on |omega| = 8-9 qubits has
    # diagonal elements and k shifts filling 2^k 2^|omega| > 2^14 entries,
    # so the render scales by d in several passes.
    rng = np.random.default_rng(47)
    n, cases = 10, 0
    while cases < 2:
        gens = GeneratorSet(random_stabilizer_set(n, rng).generators[:9], n)
        omega = sorted(rng.choice(n, size=int(rng.integers(8, 10)), replace=False).tolist())
        inside = [m for m in enumerate_group(gens) if support(m) <= set(omega)]
        shifts = len({m.v for m in inside}).bit_length() - 1
        if len(inside) == 1 << shifts or shifts + len(omega) <= 14:
            continue
        assert np.array_equal(stabilizer_rdm(gens, omega), subgroup_sum_by_kron(gens, omega))
        cases += 1


def test_products_match_row_products():
    # Element i of _products is the product, in order, of the rows j at the
    # set bits 2^j of i, as (k - |u&v| mod 4, u, v) of its (k, u, v) row:
    # for a set's commuting Hermitian rows, and in order for any rows.
    rng = np.random.default_rng(48)
    for trial in range(40):
        n = int(rng.integers(1, 8))
        if trial % 2:
            rows = [m.row for m in random_stabilizer_set(n, rng).generators]
        else:
            rows = [random_pauli(n, rng).row for _ in range(n)]
        rows = rows[:int(rng.integers(0, n + 1))]
        got = _products(rows)
        assert len(got) == 1 << len(rows)
        for i, element in enumerate(got):
            k, u, v = reduce(row_product, (r for j, r in enumerate(rows) if i >> j & 1),
                             (0, 0, 0))
            assert element == ((k - (u & v).bit_count()) % 4, u, v)


def test_cap_holds_for_a_kept_marginal():
    gens = canonical_generators(Graph.path(4))
    stabilizer_rdm(gens, [0, 1, 2], cap=3)
    with pytest.raises(ValueError, match="dense rendering cap exceeded"):
        stabilizer_rdm(gens, [0, 1, 2], cap=2)
    density_matrix(gens)
    with pytest.raises(ValueError, match="dense rendering cap exceeded"):
        density_matrix(gens, cap=3)


def test_density_matrix_memory_stays_bounded():
    gens = canonical_generators(Graph.path(10))
    tracemalloc.start()
    try:
        rho = density_matrix(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.shape == (1024, 1024)
    # the 2^10 x 2^10 complex result alone takes 16 MiB
    assert peak <= 32 * 2 ** 20


def test_rdm_beyond_enumeration_cap():
    # a 4-qubit state padded with |0> on 36 more qubits: l = 40 generators,
    # yet every S_omega inside qubits 0-3 has at most 2^|omega| elements
    rng = np.random.default_rng(40)
    small = random_stabilizer_set(4, rng)
    pad = (0,) * 36
    ops = [from_binary(u + pad, v + pad, m.phase)
           for m in small.generators for u, v in [to_binary(m)]]
    ops += [from_binary(tuple(int(j == q) for j in range(40)), (0,) * 40)
            for q in range(4, 40)]
    gens = recombine_generators(GeneratorSet(tuple(ops), 40),
                                random_invertible_f2(40, rng))
    eye = np.eye(16, dtype=complex)
    rho = eye
    for m in small.generators:
        rho = rho @ (eye + dense_matrix(m)) / 2
    for omega in ([0, 1], [1, 2, 3], [0, 2, 3]):
        want = ptrace_by_summation(rho, omega, 4)
        assert np.max(np.abs(stabilizer_rdm(gens, omega) - want)) < 1e-12


def test_rdm_windows_of_a_1000_vertex_path():
    # away from the far end, the marginal on three consecutive vertices of a
    # path graph state depends only on the neighbourhood that the matching
    # window of the 5-vertex path reproduces
    gens = canonical_generators(Graph.path(1000))
    rho5 = density_matrix(canonical_generators(Graph.path(5)))
    for omega, window in (([0, 1, 2], [0, 1, 2]), ([499, 500, 501], [1, 2, 3])):
        want = dense_partial_trace(rho5, window)
        assert np.max(np.abs(stabilizer_rdm(gens, omega) - want)) < 1e-12


def test_rdm_rejects_empty_omega():
    with pytest.raises(ValueError):
        stabilizer_rdm(GHZ3, [])


# --- recombination ---

def test_recombine_identity():
    out = recombine_generators(GHZ3, np.eye(3, dtype=np.uint8))
    assert out.generators == GHZ3.generators


def test_recombine_p4_product_support():
    gens = canonical_generators(Graph.path(4))
    r = np.eye(4, dtype=np.uint8)
    r[0, 2] = 1  # new generator 2 is M0 * M2
    out = recombine_generators(gens, r)
    assert support(out.generators[2]) == {0, 2, 3}


def test_recombine_preserves_group():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        gens = random_stabilizer_set(n, rng)
        out = recombine_generators(gens, random_invertible_f2(n, rng))
        assert group_key(enumerate_group(out)) == group_key(enumerate_group(gens))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_product_matches_the_multiply_fold(data):
    n, l = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 6))
    masks = st.integers(0, (1 << n) - 1)
    ops = [PauliOperator(data.draw(st.integers(0, 3)), data.draw(masks), data.draw(masks), n)
           for _ in range(l)]
    for mask in (data.draw(st.integers(0, (1 << l) - 1)), 0):
        want = PauliOperator(0, 0, 0, n)
        for i, op in enumerate(ops):
            if mask >> (l - 1 - i) & 1:
                want = multiply(want, op)
        assert product([op.row for op in ops], mask) == want.row


def test_recombine_singular_raises():
    with pytest.raises(ValueError):
        recombine_generators(GHZ3, np.zeros((3, 3), dtype=np.uint8))


# --- minimal support sets ---

def test_minimal_support_ghz():
    for n in range(3, 7):
        assert minimal_support_set(ghz_generators(n)) == {frozenset(range(n))}


def test_minimal_support_p4():
    gens = canonical_generators(Graph.path(4))
    assert minimal_support_set(gens) == {frozenset({0, 1, 2}), frozenset({1, 2, 3})}


def test_minimal_support_antichain_unchanged():
    gens = GeneratorSet.from_strings(4, ["XZII", "IXZI", "IIXZ"])
    assert minimal_support_set(gens) == {frozenset({0, 1}), frozenset({1, 2}),
                                         frozenset({2, 3})}


def test_minimal_support_is_antichain_and_covers_dropped():
    rng = np.random.default_rng(41)
    for _ in range(10):
        gens = random_stabilizer_set(4, rng)
        kept = minimal_support_set(gens)
        for a in kept:
            assert not any(a < b for b in kept)
        for m in gens.generators:
            assert any(support(m) <= b for b in kept)


# --- exhaustive state enumeration ---

def test_enumerate_states_n1():
    states = enumerate_stabilizer_states(1)
    assert len(states) == 6
    eigvecs = []
    for mat in (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                np.array([[1, 0], [0, -1]])):
        for sign in (1, -1):
            w, v = np.linalg.eigh(sign * mat)
            vec = v[:, np.argmax(w)]
            eigvecs.append(np.outer(vec, vec.conj()))
    for target in eigvecs:
        assert any(np.max(np.abs(s - target)) < 1e-9 for s in states)


def test_enumerate_states_count_and_distinct():
    # 2^n * prod_{k=1}^{n} (2^k + 1) pure stabilizer states on n qubits
    for n, count in ((1, 6), (2, 60), (3, 1080)):
        states = enumerate_stabilizer_states(n)
        assert len(states) == count
        assert len({np.round(s, 9).tobytes() for s in states}) == count


def test_enumerated_states_keep_their_bytes_and_order():
    # Pinned from rendering each (span, sign pattern) as the density_matrix
    # of its signed generator set, one set at a time.
    for n, pin in ((1, "6fc510f672b4d94c"), (2, "b2050a3afa01a7ab"), (3, "efeb22711eedbf96")):
        states = enumerate_stabilizer_states(n)
        digest = hashlib.sha256(b"".join((s + 0).tobytes() for s in states)).hexdigest()
        assert digest[:16] == pin


def test_enumerated_states_are_pure():
    for s in enumerate_stabilizer_states(2):
        assert np.max(np.abs(s @ s - s)) < 1e-12
        assert abs(np.trace(s) - 1) < 1e-12


def test_enumerate_states_cap():
    with pytest.raises(ValueError):
        enumerate_stabilizer_states(4)


# --- text formats ---

def test_generator_file_round_trip():
    text = format_generator_file(GHZ3)
    assert parse_generator_file(text).generators == GHZ3.generators


def test_generator_file_rejects_wrong_width():
    with pytest.raises(ValueError):
        parse_generator_file("3\nXX\n")


def test_negative_qubit_count_is_refused():
    with pytest.raises(ValueError, match="line 1: expected qubit count, got '-1'"):
        parse_generator_file("-1\n")
    with pytest.raises(ValueError, match="qubit count must be non-negative"):
        GeneratorSet((), -1)


def test_density_matrix_text_round_trip():
    rho = density_matrix(GHZ3)
    again = parse_density_matrix(format_density_matrix(rho))
    assert np.max(np.abs(again - rho)) < 1e-11


def test_density_matrix_text_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_density_matrix("4\n1 0 0 0\n")
