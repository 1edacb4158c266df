import numpy as np
import pytest
from hypothesis import given, strategies as st

from qgol import (
    SpinConfig,
    StateVector,
    config_from_index,
    fock_index,
    make_fock_state,
    norm,
    overlap,
)
from qgol.lattice import sector_indices, split_index


def test_fock_index_examples():
    assert fock_index(SpinConfig((0, 0, 0, 0, 0))) == 0
    assert fock_index(SpinConfig((1, 0, 0, 0, 0))) == 1  # site 1 is the lowest bit
    assert fock_index(SpinConfig((0, 0, 1, 0, 1))) == 4 + 16


def test_fock_index_roundtrip_exhaustive_L5():
    seen = set()
    for index in range(32):
        cfg = config_from_index(index, 5)
        assert fock_index(cfg) == index
        seen.add(cfg.bits)
    assert len(seen) == 32


@given(st.lists(st.integers(0, 1), min_size=5, max_size=12))
def test_fock_index_bijection(bits):
    cfg = SpinConfig(tuple(bits))
    assert config_from_index(fock_index(cfg), cfg.L) == cfg


@pytest.mark.parametrize("L", [5, 8])
def test_split_index_inverts_sector_indices(L):
    index = np.arange(1 << L)
    low, high, position = split_index(L, index)
    for low_bits in range(4):
        for high_bits in range(4):
            block = (low == low_bits) & (high == high_bits)
            assert block.sum() == 1 << (L - 4)
            assert (sector_indices(L, low_bits, high_bits)[position[block]] == index[block]).all()
    assert split_index(L, (1 << L) - 1) == (3, 3, (1 << (L - 4)) - 1)  # a Python int too


def test_make_fock_state_examples():
    s = make_fock_state(SpinConfig((0,) * 5))
    assert s.amplitudes[0] == 1.0 and np.count_nonzero(s.amplitudes) == 1
    s = make_fock_state(SpinConfig((1,) * 5))
    assert s.amplitudes[31] == 1.0
    s = make_fock_state(SpinConfig((0, 0, 1, 0, 1)))
    assert s.amplitudes[20] == 1.0


def test_fock_states_orthonormal():
    states = [make_fock_state(config_from_index(i, 5)) for i in range(8)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            assert overlap(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)


def test_norm_examples():
    assert norm(make_fock_state(SpinConfig((0, 1, 0, 1, 0)))) == 1.0
    assert norm(np.zeros(32)) == 0.0
    amps = np.zeros(32, dtype=complex)
    amps[3] = amps[17] = 1 / np.sqrt(2)
    assert norm(amps) == pytest.approx(1.0, abs=1e-15)


def test_overlap_examples():
    a = make_fock_state(SpinConfig((0, 0, 1, 0, 1)))
    b = make_fock_state(SpinConfig((1, 0, 1, 0, 1)))
    assert overlap(a, a) == pytest.approx(1.0)
    assert overlap(a, b) == pytest.approx(0.0)
    sup = (a.amplitudes + b.amplitudes) / np.sqrt(2)
    assert overlap(a, sup) == pytest.approx(1 / np.sqrt(2))


def test_overlap_dimension_mismatch():
    a = make_fock_state(SpinConfig((0,) * 5))
    b = make_fock_state(SpinConfig((0,) * 6))
    with pytest.raises(ValueError):
        overlap(a, b)


@given(st.integers(0, 10**6))
def test_cauchy_schwarz(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=32) + 1j * rng.normal(size=32)
    b = rng.normal(size=32) + 1j * rng.normal(size=32)
    assert abs(overlap(a, b)) <= norm(a) * norm(b) + 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        SpinConfig((0, 1, 0, 1))  # below the minimum lattice size
    with pytest.raises(ValueError):
        SpinConfig((0, 1, 2, 0, 1))
    with pytest.raises(ValueError):
        SpinConfig.from_string("01x10")


def test_bitstring_roundtrip():
    cfg = SpinConfig.from_string("00101")
    assert cfg.bits == (0, 0, 1, 0, 1)
    assert cfg.to_string() == "00101"
    assert cfg.bit(3) == 1 and cfg.bit(1) == 0  # site 1 is leftmost


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(np.ones(32))  # not normalized
    with pytest.raises(ValueError):
        StateVector(np.zeros(33))  # not a power of two
    s = StateVector(np.eye(32)[4])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 1.0  # immutable after construction


def test_state_vector_refuses_reassignment():
    s = make_fock_state(SpinConfig.from_string("0011010"))
    with pytest.raises(AttributeError, match="immutable"):
        s.offset = 0
    full = StateVector(np.eye(32)[4])
    for state in (s, full):
        for name in ("offset", "block", "L", "amplitudes", "_frozen"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(state, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(state, name)
    assert (s.L, s.offset, s.sector) == (7, 2, (0b00, 0b01))
    assert np.flatnonzero(s.amplitudes).tolist() == [fock_index(SpinConfig.from_string("0011010"))]
