"""Basis encoding for the L-site spin-1/2 chain.

Site 1 is the least significant bit of a basis index: the configuration
with bits b_1 ... b_L maps to index sum_j b_j * 2**(j-1).  This module is
the single encoding authority; everything else goes through `fock_index`,
`config_from_index` and, for the frozen-boundary blocks, `sector_indices`
and its inverse `split_index` instead of re-deriving bit order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

#: Smallest admissible lattice: the bulk site range [3, L-2] is empty below this.
MIN_SITES = 5


@dataclass(frozen=True)
class SpinConfig:
    """A classical configuration of the chain: 0 = dead, 1 = alive, sites 1..L."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < MIN_SITES:
            raise ValueError(
                f"lattice needs at least {MIN_SITES} sites, got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("configuration bits must be 0 or 1")

    @property
    def L(self) -> int:
        return len(self.bits)

    def bit(self, site: int) -> int:
        """Value at the 1-indexed ``site``."""
        if not 1 <= site <= self.L:
            raise ValueError(f"site {site} outside [1, {self.L}]")
        return self.bits[site - 1]

    def flip(self, site: int) -> "SpinConfig":
        """Copy with the bit at ``site`` swapped."""
        if not 1 <= site <= self.L:
            raise ValueError(f"site {site} outside [1, {self.L}]")
        bits = list(self.bits)
        bits[site - 1] ^= 1
        return SpinConfig(tuple(bits))

    @classmethod
    def from_string(cls, s: str) -> "SpinConfig":
        """Parse a bitstring such as ``"00101"``; site 1 is the leftmost character."""
        s = s.strip()
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"not a bitstring: {s!r}")
        return cls(tuple(int(c) for c in s))

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __str__(self) -> str:
        return self.to_string()


def _checked_amplitudes(values, norm_tol: float) -> np.ndarray:
    """Read-only complex copy of ``values``: power-of-two length, unit norm."""
    amps = np.array(values, dtype=complex)
    if amps.ndim != 1 or amps.size < 2 or (amps.size & (amps.size - 1)):
        raise ValueError("amplitude vector length must be a power of two >= 2")
    nrm = float(np.linalg.norm(amps))
    if not abs(nrm - 1.0) <= norm_tol:  # a NaN or infinite amplitude fails too
        raise ValueError(f"state not normalized or not finite: |psi| = {nrm!r}")
    amps.flags.writeable = False
    return amps


class StateVector:
    """A normalized state of L spins over the sigma_z basis, held as its
    frozen sites' bits times one block of amplitudes.

    `frozen` maps each site held in a basis state to its bit (read-only);
    `block` holds the amplitudes of the remaining sites offset+1 ..
    offset+n, site offset+1 the least significant bit of a block index.
    A full vector, made here, has no frozen sites, `offset` 0, and its
    2**L amplitudes as `block`.  A state confined to one frozen-boundary
    sector, made by `sector_state` (e.g. every Fock state), freezes sites
    1, 2, L-1 and L and has `offset` 2 and the 2**(L-4) interior
    amplitudes as `block`.  Values are immutable after construction: the
    amplitudes are copied and marked read-only, and no attribute can be
    set or deleted.

    `amplitudes` is the full 2**L vector, the amplitude at index
    ``fock_index(c)`` belonging to configuration ``c``: `block` itself for a
    full vector, built on first access and kept for a sector state.

    Parameters
    ----------
    amplitudes : array_like
        2**L finite complex entries with Euclidean norm 1 within ``norm_tol``.
    norm_tol : float
        Allowed deviation of the norm from 1 (default 1e-9; integrators
        relax this for snapshots whose drift is measured separately).
    """

    def __init__(self, amplitudes, norm_tol: float = 1e-9):
        self._hold(_checked_amplitudes(amplitudes, norm_tol), {})

    def _hold(self, block: np.ndarray, frozen: dict) -> None:
        """Set the stored form, once: ``block`` (checked) and the ``frozen`` site -> bit map."""
        vars(self).update(block=block, _frozen=frozen, offset=2 if frozen else 0,
                          L=block.size.bit_length() - 1 + len(frozen))

    def __setattr__(self, name, value):
        raise AttributeError(f"a StateVector is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a StateVector is immutable: cannot delete {name!r}")

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """The full 2**L vector (read-only): `block` itself for a full vector,
        else built from `block` on first access."""
        if not self._frozen:
            return self.block
        amps = np.zeros(self.dim, dtype=complex)
        amps[sector_indices(self.L, *self.sector)] = self.block
        amps.flags.writeable = False
        return amps

    @property
    def frozen(self) -> MappingProxyType:
        """Read-only map from each frozen site to its bit; empty for a full vector."""
        return MappingProxyType(self._frozen)

    @property
    def sector(self) -> tuple[int, int] | None:
        """(low_bits, high_bits): the bits of sites (1, 2) and (L-1, L), the
        lower site the low bit; None for a full vector."""
        f, L = self._frozen, self.L
        return (f[1] | f[2] << 1, f[L - 1] | f[L] << 1) if f else None

    @property
    def dim(self) -> int:
        return 1 << self.L

    def __repr__(self) -> str:
        return f"StateVector(L={self.L})"


def _check_sector(L: int, low_bits: int, high_bits: int) -> None:
    if L < MIN_SITES:
        raise ValueError(f"lattice needs at least {MIN_SITES} sites, got {L}")
    if not 0 <= low_bits < 4 or not 0 <= high_bits < 4:
        raise ValueError("boundary bit patterns must be two-bit values")


def sector_indices(L: int, low_bits: int, high_bits: int) -> np.ndarray:
    """Basis indices of a frozen-boundary sector, in block order.

    Block index p holds the configuration with sites (1, 2) = ``low_bits``,
    interior sites 3..L-2 = the bits of p, and sites (L-1, L) = ``high_bits``.
    """
    _check_sector(L, low_bits, high_bits)
    interior = np.arange(1 << (L - 4), dtype=np.int64)
    return low_bits | (interior << 2) | (high_bits << (L - 2))


def split_index(L: int, index):
    """(low_bits, high_bits, block position) of basis index(es); inverse of `sector_indices`."""
    return index & 3, index >> (L - 2), (index >> 2) & ((1 << (L - 4)) - 1)


def sector_state(
    L: int, low_bits: int, high_bits: int, block, norm_tol: float = 1e-9
) -> StateVector:
    """The state with boundary bits (``low_bits``, ``high_bits``) and interior
    amplitudes ``block`` (2**(L-4) entries in `sector_indices` order),
    with sites 1, 2, L-1 and L frozen."""
    _check_sector(L, low_bits, high_bits)
    block = _checked_amplitudes(block, norm_tol)
    if block.size != 1 << (L - 4):
        raise ValueError(f"block has {block.size} amplitudes, L = {L} needs {1 << (L - 4)}")
    state = StateVector.__new__(StateVector)
    state._hold(block, {1: low_bits & 1, 2: low_bits >> 1, L - 1: high_bits & 1, L: high_bits >> 1})
    return state


def fock_index(config: SpinConfig) -> int:
    """Basis index of a configuration: sum_j b_j * 2**(j-1)."""
    index = 0
    for j, b in enumerate(config.bits):
        index |= b << j
    return index


def config_from_index(index: int, L: int) -> SpinConfig:
    """Inverse of `fock_index` for a lattice of ``L`` sites."""
    if not 0 <= index < (1 << L):
        raise ValueError(f"index {index} outside [0, 2**{L})")
    return SpinConfig(tuple((index >> j) & 1 for j in range(L)))


def make_fock_state(config: SpinConfig) -> StateVector:
    """Separable basis state |b_1 ... b_L>, its boundary sites frozen (`sector_state`)."""
    low_bits, high_bits, position = split_index(config.L, fock_index(config))
    block = np.zeros(1 << (config.L - 4), dtype=complex)
    block[position] = 1.0
    return sector_state(config.L, low_bits, high_bits, block)


def _amplitudes(state) -> np.ndarray:
    return state.amplitudes if isinstance(state, StateVector) else np.asarray(state)


def norm(state) -> float:
    """Euclidean norm of a state vector (accepts raw arrays, e.g. H*psi)."""
    return float(np.linalg.norm(_amplitudes(state)))


def overlap(a, b) -> complex:
    """Inner product <a|b>, conjugating the first argument."""
    va, vb = _amplitudes(a), _amplitudes(b)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    return complex(np.vdot(va, vb))
