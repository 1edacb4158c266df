"""Basis encoding for the L-site spin-1/2 chain.

Site 1 is the least significant bit of a basis index: the configuration
with bits b_1 ... b_L maps to index sum_j b_j * 2**(j-1).  This module is
the single encoding authority; everything else goes through `fock_index`
and `config_from_index` instead of re-deriving bit order.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class StateVector:
    """A normalized vector of 2**L complex amplitudes over the sigma_z basis.

    The amplitude at index ``fock_index(c)`` belongs to configuration ``c``.
    Values are immutable after construction: the amplitude array is copied
    and marked read-only.

    Parameters
    ----------
    amplitudes : array_like
        2**L finite complex entries with Euclidean norm 1 within ``norm_tol``.
    norm_tol : float
        Allowed deviation of the norm from 1 (default 1e-9; integrators
        relax this for snapshots whose drift is measured separately).
    """

    def __init__(self, amplitudes, norm_tol: float = 1e-9):
        amps = np.array(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2 or (amps.size & (amps.size - 1)):
            raise ValueError("amplitude vector length must be a power of two >= 2")
        nrm = float(np.linalg.norm(amps))
        if not abs(nrm - 1.0) <= norm_tol:  # a NaN or infinite amplitude fails too
            raise ValueError(f"state not normalized or not finite: |psi| = {nrm!r}")
        amps.flags.writeable = False
        self.amplitudes = amps
        self.L = amps.size.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        return f"StateVector(L={self.L})"


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
    """Separable basis state |b_1 ... b_L> with unit amplitude at `fock_index`."""
    amps = np.zeros(1 << config.L, dtype=complex)
    amps[fock_index(config)] = 1.0
    return StateVector(amps)


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
