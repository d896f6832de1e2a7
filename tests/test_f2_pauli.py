import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabdet.f2_pauli import (
    PauliOperator,
    commutes,
    dense_matrix,
    f2_rank,
    format_pauli,
    multiply,
    parse_pauli,
    row_entries,
    support,
)

from conftest import bit, kron_dense, kron_on, pauli_factors, random_pauli


def paulis(n):
    masks = st.integers(0, (1 << n) - 1)
    return st.builds(lambda k, u, v: PauliOperator(k, u, v, n), st.integers(0, 3), masks, masks)


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


def test_constructor_checks_phase_and_masks():
    for k in (-1, 4):
        with pytest.raises(ValueError, match=r"phase exponent must be 0\.\.3"):
            PauliOperator(k, 0, 0, 1)
    for u, v in ((2, 0), (0, -1)):
        with pytest.raises(ValueError, match="z-part and x-part must be 1-bit masks"):
            PauliOperator(0, u, v, 1)


def test_multiply_size_mismatch():
    for fn in (multiply, commutes):
        with pytest.raises(ValueError, match="size mismatch: 1 vs 2"):
            fn(parse_pauli("X"), parse_pauli("XX"))


@settings(max_examples=100, deadline=None)
@given(paulis(3), paulis(3))
def test_multiply_matches_dense_product(a, b):
    assert np.max(np.abs(dense_matrix(multiply(a, b))
                         - dense_matrix(a) @ dense_matrix(b))) == 0


@settings(max_examples=100, deadline=None)
@given(paulis(3), paulis(3))
def test_binary_map_is_homomorphism(a, b):
    m = multiply(a, b)
    assert (m.u, m.v) == (a.u ^ b.u, a.v ^ b.v)


def test_commutes_ghz_generators():
    assert commutes(parse_pauli("XXX"), parse_pauli("ZZI"))


def test_commutes_x_z():
    assert not commutes(parse_pauli("X"), parse_pauli("Z"))


def test_commutes_exhaustive_n2_dense_oracle():
    # all 4096 pairs of phased 2-qubit operators against the Kronecker oracle
    ops = [PauliOperator(k, u, v, 2) for k in range(4) for u in range(4) for v in range(4)]
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


# --- support ---

def test_support_examples():
    assert support(parse_pauli("XZII")) == {0, 1}
    assert support(PauliOperator(0, 0, 0, 5)) == frozenset()
    assert support(parse_pauli("ZXZI")) == {0, 1, 2}


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
    for i in range(8):
        nz = np.nonzero(m[i])[0]
        assert list(nz) == [i ^ op.v]
        nzc = np.nonzero(m[:, i])[0]
        assert len(nzc) == 1


def test_restriction_slices_dense_matrix():
    # entry (i_w, i_w + v_w) of the oracle's restriction, the phase times the
    # Kronecker factors on omega, equals the full-matrix entry at any
    # extension of i_w by bits outside the restriction set
    rng = np.random.default_rng(11)
    for _ in range(20):
        op = random_pauli(4, rng)
        omega = sorted(support(op) | {int(rng.integers(0, 4))})
        sub = op.phase * kron_on(pauli_factors(op), omega)
        full = dense_matrix(op)
        v = [bit(op.v, j, 4) for j in range(4)]
        v_full = op.v
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


def test_rank_rejects_non_matrices():
    for m in (np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="expected a 2-d matrix"):
            f2_rank(m)


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


def test_format_round_trips_every_real_phase_operator():
    for n in (1, 2, 3):
        for k in (0, 2):
            for u in range(1 << n):
                for v in range(1 << n):
                    op = PauliOperator(k, u, v, n)
                    text = format_pauli(op)
                    assert parse_pauli(text) == op
                    assert str(op) == text
    assert format_pauli(PauliOperator(2, 0b011, 0b110, 3)) == "-XYZ"


def test_format_rejects_imaginary_phase():
    for k in (1, 3):
        with pytest.raises(ValueError, match="imaginary phase has no text form"):
            format_pauli(PauliOperator(k, 0, 1, 1))
