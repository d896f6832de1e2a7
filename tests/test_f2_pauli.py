import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabdet.f2_pauli import (
    PHASES,
    PauliOperator,
    commutes,
    dense_matrix,
    f2_rank,
    format_pauli,
    from_binary,
    multiply,
    parse_pauli,
    restrict,
    row_entries,
    support,
    to_binary,
)

from conftest import kron_dense, random_pauli


def bits(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)


def paulis(n):
    return st.builds(lambda k, u, v: from_binary(u, v, PHASES[k]),
                     st.integers(0, 3), bits(n), bits(n))


# --- binary map ---

def test_to_binary_zx():
    assert to_binary(parse_pauli("ZX")) == ((1, 0), (0, 1))


def test_to_binary_identity():
    assert to_binary(PauliOperator(0, 0, 0, 3)) == ((0, 0, 0), (0, 0, 0))


def test_to_binary_discards_phase():
    assert to_binary(parse_pauli("-YY")) == ((1, 1), (1, 1))


def test_from_binary_examples():
    assert from_binary((1, 0), (0, 1), 1) == parse_pauli("ZX")
    assert from_binary((0,) * 4, (0,) * 4, -1) == parse_pauli("-IIII")
    assert from_binary((1, 1), (1, 1), 1) == parse_pauli("YY")


def test_from_binary_length_mismatch():
    with pytest.raises(ValueError):
        from_binary((1, 0), (0,), 1)


def test_from_binary_bad_phase():
    with pytest.raises(ValueError):
        from_binary((0,), (0,), 0.5)


# --- product and commutation ---

def test_multiply_xx_zz():
    assert multiply(parse_pauli("XX"), parse_pauli("ZZ")) == parse_pauli("-YY")


def test_multiply_identity():
    m = parse_pauli("-XYZ")
    assert multiply(m, PauliOperator(0, 0, 0, 3)) == m


def test_multiply_zzi_izz_dense_oracle():
    a, b = parse_pauli("ZZI"), parse_pauli("IZZ")
    prod = multiply(a, b)
    assert prod == parse_pauli("ZIZ")
    assert np.array_equal(dense_matrix(prod), dense_matrix(a) @ dense_matrix(b))


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        multiply(parse_pauli("X"), parse_pauli("XX"))


@settings(max_examples=100, deadline=None)
@given(paulis(3), paulis(3))
def test_multiply_matches_dense_product(a, b):
    assert np.max(np.abs(dense_matrix(multiply(a, b))
                         - dense_matrix(a) @ dense_matrix(b))) == 0


@settings(max_examples=100, deadline=None)
@given(paulis(3), paulis(3))
def test_binary_map_is_homomorphism(a, b):
    ua, va = to_binary(a)
    ub, vb = to_binary(b)
    u, v = to_binary(multiply(a, b))
    assert u == tuple(x ^ y for x, y in zip(ua, ub))
    assert v == tuple(x ^ y for x, y in zip(va, vb))


def test_commutes_ghz_generators():
    assert commutes(parse_pauli("XXX"), parse_pauli("ZZI"))


def test_commutes_x_z():
    assert not commutes(parse_pauli("X"), parse_pauli("Z"))


def test_commutes_exhaustive_n2_dense_oracle():
    # all 4096 pairs of phased 2-qubit operators against the Kronecker oracle
    ops = [from_binary((u0, u1), (v0, v1), phase) for phase in PHASES
           for u0 in (0, 1) for u1 in (0, 1) for v0 in (0, 1) for v1 in (0, 1)]
    for a in ops:
        da = kron_dense(a)
        assert np.array_equal(dense_matrix(a), da)
        for b in ops:
            db = kron_dense(b)
            assert commutes(a, b) == np.allclose(da @ db, db @ da)
            assert np.array_equal(kron_dense(multiply(a, b)), da @ db)


def test_commutes_random_n4_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = random_pauli(4, rng), random_pauli(4, rng)
        da, db = dense_matrix(a), dense_matrix(b)
        assert commutes(a, b) == np.allclose(da @ db, db @ da)


# --- support and restriction ---

def test_support_examples():
    assert support(parse_pauli("XZII")) == {0, 1}
    assert support(PauliOperator(0, 0, 0, 5)) == frozenset()
    assert support(parse_pauli("ZXZI")) == {0, 1, 2}


def test_restrict_drops_identity_factor():
    assert restrict(parse_pauli("ZXZI"), {0, 1, 2}) == parse_pauli("ZXZ")


def test_restrict_to_support_has_no_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_pauli(5, rng)
        r = restrict(m, support(m))
        assert all(bits != (0, 0) for bits in zip(*to_binary(r)))


def test_restrict_preserves_phase():
    assert restrict(parse_pauli("-XYZ"), {1}) == parse_pauli("-Y")


def test_restrict_out_of_range():
    with pytest.raises(ValueError):
        restrict(parse_pauli("XY"), {2})


def test_restrict_rejects_non_integer_indices():
    for omega in ([0.9, 1.2], [0, 1.0], ["0"]):
        with pytest.raises(ValueError, match="not an integer"):
            restrict(parse_pauli("XZ"), omega)
    assert restrict(parse_pauli("XZ"), [np.int64(1)]) == parse_pauli("Z")
    assert restrict(parse_pauli("-XZ"), []) == from_binary((), (), -1)


# --- dense rendering ---

def test_dense_x():
    assert np.array_equal(dense_matrix(parse_pauli("X")),
                          np.array([[0, 1], [1, 0]], dtype=complex))


def test_dense_zx_row_structure():
    m = dense_matrix(parse_pauli("ZX"))
    assert m[0, 1] == 1  # row 00 has its nonzero at column 01
    assert np.count_nonzero(m[0]) == 1


@settings(max_examples=100, deadline=None)
@given(paulis(3))
def test_unique_nonzero_per_row_at_shifted_column(op):
    # every row i has exactly one nonzero, at column i xor v
    m = dense_matrix(op)
    v_index = sum(b << (2 - j) for j, b in enumerate(to_binary(op)[1]))
    for i in range(8):
        nz = np.nonzero(m[i])[0]
        assert list(nz) == [i ^ v_index]
        nzc = np.nonzero(m[:, i])[0]
        assert len(nzc) == 1


def test_restriction_slices_dense_matrix():
    # entry (i_w, i_w + v_w) of the restriction equals the full-matrix entry
    # at any extension of i_w by bits outside the restriction set
    rng = np.random.default_rng(11)
    for _ in range(20):
        op = random_pauli(4, rng)
        omega = sorted(support(op) | {int(rng.integers(0, 4))})
        sub = dense_matrix(restrict(op, omega))
        full = dense_matrix(op)
        v = to_binary(op)[1]
        v_full = sum(b << (3 - j) for j, b in enumerate(v))
        other = [j for j in range(4) if j not in omega]
        for iw in range(1 << len(omega)):
            iw_bits = [(iw >> (len(omega) - 1 - k)) & 1 for k in range(len(omega))]
            vw = sum(v[j] << (len(omega) - 1 - k) for k, j in enumerate(omega))
            for ext in range(1 << len(other)):
                bits = [0] * 4
                for k, j in enumerate(omega):
                    bits[j] = iw_bits[k]
                for k, j in enumerate(other):
                    bits[j] = (ext >> (len(other) - 1 - k)) & 1
                i_full = sum(b << (3 - j) for j, b in enumerate(bits))
                assert sub[iw, iw ^ vw] == full[i_full, i_full ^ v_full]


def test_row_entries_match_the_kronecker_product():
    rng = np.random.default_rng(12)
    for n in range(1, 11):
        ops = [random_pauli(n, rng) for _ in range(3)]
        cols, values = row_entries([op.row for op in ops], n)
        for op, c, x in zip(ops, cols, values):
            want = np.zeros((1 << n, 1 << n), dtype=complex)
            want[np.arange(1 << n), c] = x
            assert np.array_equal(want, kron_dense(op))


def test_dense_cap():
    with pytest.raises(ValueError):
        dense_matrix(PauliOperator(0, 0, 0, 11))


# --- GF(2) linear algebra ---

def test_rank_identity():
    assert f2_rank(np.eye(5, dtype=np.uint8)) == 5


def test_rank_graph_generator_x_block():
    theta = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    stacked = np.concatenate([theta, np.eye(3, dtype=np.uint8)])
    assert f2_rank(stacked[3:]) == 3


# --- text format ---

def test_parse_format_round_trip():
    for s in ("XZII", "-YY", "IIII", "-Z"):
        assert format_pauli(parse_pauli(s)) == s
    assert format_pauli(parse_pauli("+XZ")) == "XZ"


def test_parse_rejects_bad_characters():
    with pytest.raises(ValueError):
        parse_pauli("XQ")
    with pytest.raises(ValueError):
        parse_pauli("")


def test_format_rejects_imaginary_phase():
    with pytest.raises(ValueError):
        format_pauli(from_binary((0,), (1,), 1j))
