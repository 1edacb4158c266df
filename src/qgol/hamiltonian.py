"""Hamiltonian of the quantum Game of Life chain with open boundaries.

Two basis configurations are coupled, with unit matrix element, exactly
when they differ at one bulk site i in [3, L-2] whose four nearest and
next-nearest neighbours contain two or three alive cells.  Sites 1, 2,
L-1 and L never flip, so H splits into 16 frozen-boundary blocks.

One routine writes the rule's canonical CSR over a set of configurations:
`frozen_sector` runs it on one block, and the full operator, assembled
only when `to_dense` or the benchmark reads it, runs it on all 2**L
configurations.  Both are pure structure (all couplings equal 1);
`dense_hamiltonian` re-assembles the same operator from the literal
projector products as an independent test oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import MIN_SITES, sector_indices

_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])

#: Largest lattice the dense oracle assembly will attempt.
DENSE_MAX_SITES = 10


def _fires(bits, site: int):
    """The rule: bulk ``site`` flips when 2 or 3 of sites site-2, site-1,
    site+1 and site+2 are alive; ``bits[j]`` is site j+1.  ``bits`` is a
    tuple of 0/1 (gives a bool) or per-site bit arrays (a mask)."""
    count = bits[site - 3] + bits[site - 2] + bits[site] + bits[site + 1]
    return (count == 2) | (count == 3)


@dataclass(frozen=True)
class SparseHamiltonian:
    """Symmetric 0/1 coupling structure of the rule Hamiltonian (hbar = 1).

    Only ``L`` is stored.  Every routine of the package works on the blocks
    of `frozen_sector`; the full 2**L operator `matrix` is emitted on first
    access, and only `to_dense` (L <= 10) and the benchmark's coupling
    count read it.
    """

    L: int

    @property
    def dim(self) -> int:
        return 1 << self.L

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The full operator, float64 data with every stored entry equal to 1.

        `_rule_csr`, which builds every `frozen_sector` block, emits the
        rule over all 2**L configurations at once, with site s as bit s-1
        of a basis index.
        """
        return _rule_csr(np.arange(self.dim), self.L, first_site=1)

    def to_dense(self) -> np.ndarray:
        if self.L > DENSE_MAX_SITES:
            raise ValueError(f"refusing dense conversion above L = {DENSE_MAX_SITES}")
        return self.matrix.toarray()


def build_hamiltonian(L: int) -> SparseHamiltonian:
    """The rule Hamiltonian on ``L`` sites; its full matrix is built lazily."""
    if L < MIN_SITES:
        raise ValueError(f"lattice needs at least {MIN_SITES} sites, got {L}")
    return SparseHamiltonian(L=L)


def _site_operator(op: np.ndarray, site: int, L: int) -> np.ndarray:
    """Dense one-site operator embedded in the full 2**L space."""
    out = np.array([[1.0]])
    for s in range(1, L + 1):  # site L ends up most significant, matching fock_index
        out = np.kron(op if s == site else np.eye(2), out)
    return out


def dense_hamiltonian(L: int) -> np.ndarray:
    """Assemble H from the literal projector products (test oracle only).

    Sums, over every bulk site, the flip operator times the ten projector
    products that mark two or three alive neighbours.  Exponential cost;
    refuses L > 10.
    """
    if not MIN_SITES <= L <= DENSE_MAX_SITES:
        raise ValueError(f"dense assembly supports {MIN_SITES} <= L <= {DENSE_MAX_SITES}")
    dim = 1 << L
    site_bit = [((np.arange(dim) >> (s - 1)) & 1) for s in range(L + 1)]  # 1-indexed
    H = np.zeros((dim, dim))
    for i in range(3, L - 1):
        neighbours = (i - 2, i - 1, i + 1, i + 2)
        projector_diag = np.zeros(dim)
        for pattern in itertools.product((0, 1), repeat=4):
            if sum(pattern) not in (2, 3):
                continue
            indicator = np.ones(dim)
            for s, want in zip(neighbours, pattern):
                indicator *= site_bit[s] == want  # diag of n-hat / nbar-hat at s
            projector_diag += indicator
        # S_i @ diag(projector): right-multiplying by a diagonal scales columns
        H += _site_operator(_FLIP, i, L) * projector_diag[None, :]
    return H


def _rule_csr(configs: np.ndarray, L: int, first_site: int) -> sp.csr_matrix:
    """Canonical 0/1 CSR of the rule among ``configs`` (basis indices), on
    positions 0..n-1, where bulk site s is bit s - ``first_site`` of a position.

    Rows are counted per site first; a per-row cursor then writes the flips
    that clear a bit from the top site down and those that set a bit from the
    bottom up, so each row's columns land in ascending order.  Indices are
    int32 unless nnz or n reaches 2**31, where they switch to int64.
    """
    n = configs.size
    bits = [((configs >> j) & 1).astype(np.int8) for j in range(L)]
    sites = range(3, L - 1)
    fires = {site: _fires(bits, site) for site in sites}
    indptr = np.zeros(n + 1, dtype=np.int64)
    for mask in fires.values():
        indptr[1:] += mask
    np.cumsum(indptr, out=indptr)
    nnz = int(indptr[-1])
    indptr = indptr.astype(np.int32 if max(nnz, n) < 2**31 else np.int64)
    indices = np.empty(nnz, dtype=indptr.dtype)
    cursor = indptr[:-1].copy()
    for site, alive in [*((s, 1) for s in reversed(sites)), *((s, 0) for s in sites)]:
        rows = np.flatnonzero(fires[site] & (bits[site - 1] == alive))
        indices[cursor[rows]] = rows ^ (1 << (site - first_site))
        cursor[rows] += 1
    return sp.csr_matrix((np.ones(nnz), indices, indptr), shape=(n, n))


def frozen_sector(h: SparseHamiltonian, low_bits: int, high_bits: int):
    """Basis indices and block of H for fixed boundary occupations.

    ``low_bits`` carries sites (1, 2) and ``high_bits`` sites (L-1, L).
    H is exactly block diagonal over these sectors because no coupling
    touches the boundary sites, so the block is built on its own from the
    rule, on block positions, without reading the full matrix: bulk site s
    is bit s-3 of a position.
    """
    indices = sector_indices(h.L, low_bits, high_bits)
    return indices, _rule_csr(indices, h.L, first_site=3)
