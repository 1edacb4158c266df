import numpy as np
import pytest
from hypothesis import given, strategies as st

from qgol import (
    SpinConfig,
    apply_hamiltonian,
    build_hamiltonian,
    config_from_index,
    dense_hamiltonian,
    energy_expectation,
    evolve_rk4,
    fock_index,
    frozen_sector,
    make_fock_state,
)


def test_build_rejects_small_lattice():
    with pytest.raises(ValueError):
        build_hamiltonian(4)


def test_l5_rows(h5):
    dense = h5.to_dense()
    row = dense[fock_index(SpinConfig.from_string("01010"))]
    assert row[fock_index(SpinConfig.from_string("01110"))] == 1.0
    assert row.sum() == 1.0  # exactly one coupling
    assert dense[fock_index(SpinConfig.from_string("11011"))].sum() == 0.0
    assert dense[0].sum() == 0.0  # vacuum row is empty


def test_dense_oracle_equivalence():
    for L in (5, 6, 7):
        assert np.array_equal(dense_hamiltonian(L), build_hamiltonian(L).to_dense())


def test_dense_oracle_guards():
    with pytest.raises(ValueError):
        dense_hamiltonian(11)


def test_hermitian_structure():
    for L in (5, 6, 7, 8):
        h = build_hamiltonian(L)
        assert (abs(h.matrix - h.matrix.T)).nnz == 0
        assert h.matrix.diagonal().sum() == 0.0


def test_reflection_symmetry(h8):
    # site reversal j -> L+1-j induces a basis permutation commuting with H
    L = 8
    perm = np.empty(1 << L, dtype=int)
    for idx in range(1 << L):
        bits = config_from_index(idx, L).bits
        perm[idx] = fock_index(SpinConfig(tuple(reversed(bits))))
    dense = h8.matrix.toarray()
    assert np.array_equal(dense[np.ix_(perm, perm)], dense)


def test_boundary_sites_never_flip(h8):
    coo = h8.matrix.tocoo()
    flipped = coo.row ^ coo.col
    assert np.all(flipped == (flipped & -flipped))  # exactly one bit differs
    site = np.log2(flipped).astype(int) + 1
    assert site.min() >= 3 and site.max() <= 6  # bulk of L = 8


def test_every_coupling_satisfies_the_rule(h5):
    coo = h5.matrix.tocoo()
    for r, c in zip(coo.row, coo.col):
        site = int(np.log2(r ^ c)) + 1
        bits = config_from_index(int(r), 5).bits  # bits[j] is site j + 1
        assert sum(bits[s - 1] for s in (site - 2, site - 1, site + 1, site + 2)) in (2, 3)


def test_apply_examples(h5, h11):
    dead = make_fock_state(SpinConfig((0,) * 5))
    assert np.all(apply_hamiltonian(h5, dead) == 0)
    zero = apply_hamiltonian(h5, np.zeros(32))  # no sector at all
    assert zero.shape == (32,) and np.all(zero == 0)
    assert energy_expectation(h5, np.zeros(32)) == 0.0

    out = apply_hamiltonian(h5, make_fock_state(SpinConfig.from_string("01010")))
    expected = np.zeros(32, dtype=complex)
    expected[fock_index(SpinConfig.from_string("01110"))] = 1.0
    assert np.array_equal(out, expected)

    out = apply_hamiltonian(h11, make_fock_state(SpinConfig.from_string("00001010000")))
    expected = np.zeros(1 << 11, dtype=complex)
    expected[fock_index(SpinConfig.from_string("00001110000"))] = 1.0
    assert np.array_equal(out, expected)


def test_apply_matches_dense_elementwise(h5, rng):
    dense = h5.to_dense()
    x = rng.normal(size=32) + 1j * rng.normal(size=32)  # weight in all 16 sectors
    assert np.abs(apply_hamiltonian(h5, x) - dense @ x).max() < 1e-14
    assert energy_expectation(h5, x) == pytest.approx(np.vdot(x, dense @ x).real, rel=1e-14)


def test_apply_dimension_mismatch(h5):
    with pytest.raises(ValueError):
        apply_hamiltonian(h5, np.zeros(16))
    with pytest.raises(ValueError):
        energy_expectation(h5, make_fock_state(SpinConfig.from_string("000100")))


def test_apply_and_energy_never_build_the_full_operator():
    h = build_hamiltonian(20)
    fock = make_fock_state(SpinConfig.from_string("00" + "0110" * 4 + "00"))
    out = apply_hamiltonian(h, fock)
    assert out.shape == (1 << 20,) and np.vdot(out, out).real > 0
    assert energy_expectation(h, fock) == 0.0  # H flips a bit: no diagonal
    assert "matrix" not in vars(h)


def test_frozen_sector_blocks():
    # each block against the literal projector assembly, not the sparse builder
    for L in range(5, 11):
        h = build_hamiltonian(L)
        dense = dense_hamiltonian(L)
        covered = 0
        for low in range(4):
            for high in range(4):
                indices, sub = frozen_sector(h, low, high)
                assert np.array_equal(sub.toarray(), dense[np.ix_(indices, indices)])
                outside = np.setdiff1d(np.arange(1 << L), indices)
                assert dense[np.ix_(indices, outside)].sum() == 0  # truly block diagonal
                covered += len(indices)
        assert covered == 1 << L


def _reverse_bits(x, width):
    return sum(((x >> k) & 1) << (width - 1 - k) for k in range(width))


@given(st.integers(5, 12), st.integers(0, 3), st.integers(0, 3))
def test_frozen_sector_structure(L, low, high):
    h = build_hamiltonian(L)
    _, block = frozen_sector(h, low, high)
    assert block.indices.dtype == np.int32 and block.has_canonical_format
    assert np.all(block.data == 1.0)
    assert (block != block.T).nnz == 0
    assert np.diff(block.indptr).max(initial=0) <= L - 4
    # every coupling joins opposite popcount parities: H anticommutes with parity
    coo = block.tocoo()
    parity = [sum((x >> k) & 1 for k in range(L - 4)) % 2 for x in (coo.row, coo.col)]
    assert np.all(parity[0] != parity[1])
    # site j -> L+1-j swaps and reverses the boundary pairs and reverses the interior
    _, mirror = frozen_sector(h, _reverse_bits(high, 2), _reverse_bits(low, 2))
    perm = _reverse_bits(np.arange(1 << (L - 4)), L - 4)
    assert (block[perm][:, perm] != mirror).nnz == 0


@given(st.integers(6, 12))
def test_every_block_entry_couples_opposite_global_parities(L):
    # the signed real RK4 rests on this: H anticommutes with (-1)**popcount
    # of the basis index, in every one of the 16 boundary sectors
    h = build_hamiltonian(L)
    couplings = 0
    for low in range(4):
        for high in range(4):
            indices, block = frozen_sector(h, low, high)
            coo = block.tocoo()
            parity = np.bitwise_count(indices) & 1
            assert np.all(parity[coo.row] != parity[coo.col])
            couplings += coo.nnz
    assert couplings > 0


def test_evolution_leaves_fresh_blocks_unsigned(h8):
    # evolve_rk4 signs the block it built for its own run, never one shared with later calls
    psi = make_fock_state(SpinConfig.from_string("01011010"))
    evolve_rk4(h8, psi, 0.5)
    _, block = frozen_sector(h8, 0b10, 0b01)
    assert block.nnz and np.all(block.data == 1.0)


def test_full_matrix_is_the_direct_sum_of_the_blocks():
    # the full operator is emitted on its own, so check it against the 16 blocks
    for L in range(5, 13):
        h = build_hamiltonian(L)
        nnz = 0
        for low in range(4):
            for high in range(4):
                indices, block = frozen_sector(h, low, high)
                assert (h.matrix[indices][:, indices] != block).nnz == 0
                nnz += block.nnz
        assert h.matrix.nnz == nnz
