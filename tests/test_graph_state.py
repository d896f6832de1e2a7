import tracemalloc

import numpy as np
import pytest

from stabdet.f2_pauli import dense_matrix, format_pauli
from stabdet.stabilizer import GeneratorSet, density_matrix, enumerate_group, validate
from stabdet.graph_state import (
    Graph,
    LocalCliffordLayer,
    _conjugate,
    canonical_generators,
    format_graph_file,
    lc_to_graph,
    parse_graph_file,
    sign_vector,
    state_vector,
)

from conftest import (
    dense_unitary,
    group_key,
    quadratic_form,
    random_graph,
    random_pauli,
    random_stabilizer_set,
)


# --- graphs ---

def test_graph_rejects_asymmetric():
    with pytest.raises(ValueError):
        Graph([[0, 1], [0, 0]])


def test_graph_rejects_loops():
    with pytest.raises(ValueError):
        Graph([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


@pytest.mark.parametrize("entry", [2, 3, 0.7, -1, np.nan])
def test_graph_rejects_entries_other_than_0_and_1(entry):
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        Graph([[0, entry], [entry, 0]])


def test_graph_from_edges_rejects_non_integer_vertices():
    with pytest.raises(ValueError, match="not an integer"):
        Graph.from_edges(3, [(0, 1.5)])
    assert Graph.from_edges(3, [(0, np.int64(1))]).edges == [(0, 1)]


# --- canonical generators ---

def test_canonical_generators_p4():
    gens = canonical_generators(Graph.path(4))
    assert [format_pauli(m) for m in gens.generators] == \
        ["XZII", "ZXZI", "IZXZ", "IIZX"]
    assert validate(gens).ok


def test_canonical_generators_edgeless():
    gens = canonical_generators(Graph.from_edges(2, []))
    assert [format_pauli(m) for m in gens.generators] == ["XI", "IX"]


def test_canonical_generators_star():
    gens = canonical_generators(Graph.star(3))
    assert [format_pauli(m) for m in gens.generators] == ["XZZ", "ZXI", "ZIX"]
    assert validate(gens).ok


def test_generator_matrix_blocks():
    from stabdet.f2_pauli import f2_rank
    from stabdet.stabilizer import generator_matrix
    g = Graph.path(4)
    m = generator_matrix(canonical_generators(g))
    assert np.array_equal(m[:4], g.theta)
    assert np.array_equal(m[4:], np.eye(4, dtype=np.uint8))
    assert f2_rank(m[4:]) == 4


# --- quadratic form ---

def test_quadratic_form_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    assert quadratic_form(g, (1, 1)) == 1


def test_quadratic_form_zero_vector():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = random_graph(4, rng)
        assert quadratic_form(g, (0, 0, 0, 0)) == 0


def test_quadratic_form_p4_direct_sum_oracle():
    g = Graph.path(4)
    x = (1, 1, 1, 0)
    direct = sum(int(g.theta[s, t]) * x[s] * x[t]
                 for s in range(4) for t in range(s + 1, 4)) % 2
    assert quadratic_form(g, x) == direct == 0


# --- state vectors ---

def test_state_vector_single_edge():
    vec = state_vector(Graph.from_edges(2, [(0, 1)]))
    assert np.allclose(vec, np.array([1, 1, 1, -1]) / 2)


def test_state_vector_single_vertex():
    vec = state_vector(Graph.from_edges(1, []))
    assert np.allclose(vec, np.array([1, 1]) / np.sqrt(2))


def test_state_vector_outer_product_equals_projector():
    for g in (Graph.path(4), Graph.star(4), Graph.from_edges(3, [(0, 1)])):
        vec = state_vector(g)
        rho = density_matrix(canonical_generators(g))
        assert np.max(np.abs(np.outer(vec, vec.conj()) - rho)) < 1e-12


def test_generators_fix_state_vector():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        g = random_graph(n, rng)
        vec = state_vector(g)
        for m in canonical_generators(g).generators:
            assert np.max(np.abs(dense_matrix(m) @ vec - vec)) < 1e-12


def test_projector_entry_formula_exhaustive():
    # coefficient of |i><j| is (-1)^{f(i)+f(j)} / 2^n
    for n in range(1, 5):
        rng = np.random.default_rng(n)
        g = random_graph(n, rng)
        rho = density_matrix(canonical_generators(g))
        for i in range(1 << n):
            fi = quadratic_form(g, tuple((i >> (n - 1 - j)) & 1 for j in range(n)))
            for j in range(1 << n):
                fj = quadratic_form(g, tuple((j >> (n - 1 - k)) & 1 for k in range(n)))
                assert abs(rho[i, j] - (-1) ** (fi + fj) / (1 << n)) < 1e-12


def test_sign_vector_is_minus_one_to_the_quadratic_form():
    rng = np.random.default_rng(16)
    for n in range(8):
        for _ in range(5):
            g = random_graph(n, rng)
            want = [(-1) ** quadratic_form(g, [(x >> (n - 1 - j)) & 1 for j in range(n)])
                    for x in range(1 << n)]
            signs = sign_vector(g)
            assert signs.dtype == np.float64 and np.array_equal(signs, want)
    # no 2^n x n bit matrix: the peak is about three times the 0.5 MiB result
    g = random_graph(16, rng)
    tracemalloc.start()
    try:
        sign_vector(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_state_vector_cap():
    with pytest.raises(ValueError):
        state_vector(Graph(np.zeros((13, 13), dtype=np.uint8)))


# --- local Clifford layers ---

def test_layer_conjugation_matches_dense():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        k = rng.integers(0, 5, size=n)
        gates = tuple(tuple(rng.choice(["H", "S", "X", "Z"]) for _ in range(k[q]))
                      for q in range(n))
        layer = LocalCliffordLayer(gates)
        op = random_pauli(n, rng)
        u = dense_unitary(layer)
        lhs = u @ dense_matrix(op) @ u.conj().T
        rhs = dense_matrix(layer.conjugate(op))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_mask_conjugation_is_qubit_by_qubit():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        op, gate, mask = random_pauli(n, rng), str(rng.choice(["H", "S", "X", "Z"])), \
            int(rng.integers(0, 1 << n))
        layer = LocalCliffordLayer(tuple((gate,) if mask >> (n - 1 - q) & 1 else ()
                                         for q in range(n)))
        assert _conjugate(op.row, gate, mask) == layer.conjugate(op).row  # qubit by qubit


def test_lc_to_graph_canonical_input_identity_layer():
    g = Graph.path(4)
    out_graph, layer = lc_to_graph(canonical_generators(g))
    assert out_graph == g
    assert layer.is_identity


def test_lc_to_graph_ghz3_gives_star():
    gens = GeneratorSet.from_strings(3, ["XXX", "ZZI", "IZZ"])
    graph, layer = lc_to_graph(gens)
    degrees = graph.theta.sum(axis=0)
    assert sorted(degrees.tolist()) == [1, 1, 2]  # a star on 3 vertices
    center = int(np.argmax(degrees))
    assert all(len(layer.gates[q]) > 0 for q in range(3) if q != center)
    conj = GeneratorSet(tuple(layer.conjugate(m) for m in gens.generators), 3)
    assert group_key(enumerate_group(conj)) == \
        group_key(enumerate_group(canonical_generators(graph)))


def test_lc_to_graph_round_trip_random():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        gens = random_stabilizer_set(n, rng)
        graph, layer = lc_to_graph(gens)
        conj = GeneratorSet(tuple(layer.conjugate(m) for m in gens.generators), n)
        assert group_key(enumerate_group(conj)) == \
            group_key(enumerate_group(canonical_generators(graph)))


def test_lc_to_graph_rejects_partial_set():
    with pytest.raises(ValueError):
        lc_to_graph(GeneratorSet.from_strings(3, ["XXX", "ZZI"]))


def test_lc_to_graph_rejects_invalid_set():
    with pytest.raises(ValueError):
        lc_to_graph(GeneratorSet.from_strings(2, ["XX", "ZX"]))


# --- text format ---

def test_graph_file_round_trip():
    g = Graph.path(5)
    assert parse_graph_file(format_graph_file(g)) == g


def test_graph_file_rejects_duplicates_and_loops():
    with pytest.raises(ValueError):
        parse_graph_file("3\n0 1\n1 0\n")
    with pytest.raises(ValueError):
        parse_graph_file("3\n1 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_graph_file("3\n0 1 2\n")


def test_graph_file_header_checked_against_cap():
    text = format_graph_file(Graph.path(4))
    assert parse_graph_file(text, cap=4) == parse_graph_file(text) == Graph.path(4)
    with pytest.raises(ValueError, match=r"dense rendering cap exceeded: n=4 > 3"):
        parse_graph_file(text, cap=3)
    with pytest.raises(ValueError, match=r"n=10000000 > 10"):
        parse_graph_file("10000000\n", cap=10)
    with pytest.raises(ValueError, match="line 1: expected vertex count, got '-2'"):
        parse_graph_file("-2")
