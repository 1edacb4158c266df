"""Quantum correlation measures: partial traces, entropies, mutual
information, Wootters concurrence, Schmidt bond entropy.

Entropies are in bits (log base 2).  Reduced bases follow the encoding
authority of `qgol.lattice`: the first retained site listed is the least
significant bit of the reduced index.
"""

from __future__ import annotations

import numpy as np

from .lattice import StateVector

#: Eigenvalues below this are dropped from entropies (0 log 0 := 0).
EIGENVALUE_FLOOR = 1e-12

_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])).copy()  # sigma_y (x) sigma_y


def reduced_density_matrix(state: StateVector, sites) -> np.ndarray:
    """Partial trace onto ``sites`` (1-indexed, ordered, at most 12).

    The first listed site becomes the least significant bit of the reduced
    index.  Returns a dense 2**k x 2**k complex matrix, normalized by
    <psi|psi> so that integrator norm drift never leaks into the trace.
    Frozen sites enter as the pure projectors onto their bits; only the
    block's amplitudes are traced over.
    """
    sites = list(sites)
    k = len(sites)
    if k == 0 or k > 12:
        raise ValueError("retain between 1 and 12 sites")
    if len(set(sites)) != k:
        raise ValueError(f"duplicate sites in {sites}")
    if any(not 1 <= s <= state.L for s in sites):
        raise ValueError(f"sites {sites} outside [1, {state.L}]")
    frozen, block = state.frozen, state.block
    free = [s for s in sites if s not in frozen]
    n = block.size.bit_length() - 1
    tensor = block.reshape((2,) * n)  # axis a <-> site offset + n - a
    keep_axes = [state.offset + n - s for s in free]
    trace_axes = [a for a in range(n) if a not in set(keep_axes)]
    # reversed: the last listed site must be the most significant reduced bit
    ordered = tensor.transpose(list(reversed(keep_axes)) + trace_axes)
    m = ordered.reshape(1 << len(free), -1)
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    if len(free) == k:
        return rho
    # |b><b| on the frozen sites: rho fills the rows and columns whose frozen bits are b
    index = np.full(rho.shape[0], sum(frozen[s] << q for q, s in enumerate(sites) if s in frozen))
    r = np.arange(rho.shape[0])
    for b, q in enumerate(q for q, s in enumerate(sites) if s not in frozen):
        index |= ((r >> b) & 1) << q
    out = np.zeros((1 << k, 1 << k), dtype=complex)
    out[np.ix_(index, index)] = rho
    return out


def _check_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Check one density matrix, or a stack along the leading axes; NaN fails every test."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError("density matrix must be square")
    if not (np.abs(rho - rho.conj().swapaxes(-1, -2)) <= tol).all():
        raise ValueError("density matrix is not Hermitian, or not finite")
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    bad = ~(np.abs(trace - 1.0) <= tol)
    if bad.any():
        raise ValueError(f"density matrix trace {trace[bad]} != 1")
    return rho


def von_neumann_entropy(rho: np.ndarray):
    """-Tr(rho log2 rho) over eigenvalues above `EIGENVALUE_FLOOR`: a float for one
    matrix, an array for a stack along the leading axes."""
    lam = np.linalg.eigvalsh(_check_density_matrix(rho))
    lam = np.where(lam > EIGENVALUE_FLOOR, lam, 1.0)  # 1 log 1 = 0 drops the rest
    s = np.maximum(-(lam * np.log2(lam)).sum(axis=-1), 0.0)
    return float(s) if s.ndim == 0 else s


def single_site_entropies(state: StateVector) -> np.ndarray:
    """Entanglement entropy of every single-site reduced state.

    The full 2x2 reduced matrix is built each time; coherences are not
    assumed to vanish.
    """
    sites = range(1, state.L + 1)
    return von_neumann_entropy(np.array([reduced_density_matrix(state, [s]) for s in sites]))


def mutual_information_matrix(state: StateVector) -> np.ndarray:
    """Pairwise mutual information (S_i + S_j - S_ij) / 2 as an L x L matrix.

    The factor 1/2 is the convention used throughout; diagonal entries are
    zero and negative round-off is clamped to zero.
    """
    singles = single_site_entropies(state)
    i, j = np.triu_indices(state.L, 1)
    pairs = [reduced_density_matrix(state, [a + 1, b + 1]) for a, b in zip(i, j)]
    value = 0.5 * (singles[i] + singles[j] - von_neumann_entropy(np.reshape(pairs, (-1, 4, 4))))
    bad = np.flatnonzero(value < -1e-10)
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"mutual information {float(value[k])!r} below round-off floor at "
            f"({i[k] + 1}, {j[k] + 1})"
        )
    mi = np.zeros((state.L, state.L))
    mi[i, j] = mi[j, i] = np.maximum(value, 0.0)
    return mi


def concurrence(rho: np.ndarray):
    """Wootters concurrence of a two-qubit density matrix.

    Uses the eigenvalues of rho @ rho_tilde (rho_tilde the spin-flipped
    conjugate), whose square roots equal the singular chain of the
    textbook matrix-square-root construction.  Negative real parts beyond
    1e-8 indicate an invalid input and raise.  Stacks as `von_neumann_entropy`.
    """
    rho = _check_density_matrix(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence needs 4x4 matrices, got {rho.shape}")
    lam = np.linalg.eigvals(rho @ (_SIGMA_YY @ rho.conj() @ _SIGMA_YY))
    if not ((lam.real >= -1e-8) & (np.abs(lam.imag) <= 1e-8)).all():
        raise ValueError("rho * rho_tilde has eigenvalues too far from the real axis")
    r = np.sort(np.sqrt(np.clip(lam.real, 0.0, None)), axis=-1)  # ascending
    c = np.maximum(r[..., 3] - r[..., 2] - r[..., 1] - r[..., 0], 0.0)
    return float(c) if c.ndim == 0 else c


def average_concurrence(state: StateVector, d: int) -> float:
    """Mean concurrence over every site pair (i, i + d), boundaries included."""
    if not 1 <= d <= state.L - 1:
        raise ValueError(f"distance {d} outside [1, {state.L - 1}]")
    pairs = [reduced_density_matrix(state, [i, i + d]) for i in range(1, state.L - d + 1)]
    return float(np.mean(concurrence(np.array(pairs))))


def bond_entropy(state: StateVector, j: int) -> float:
    """Schmidt entropy of the bipartition sites 1..j | j+1..L.

    Both halves share one nonzero spectrum, so this is the von Neumann
    entropy of the smaller half's reduced density matrix (at most
    2**(L//2) square): the Gram matrix of the reshaped amplitudes.  Frozen
    sites are in product with the rest and add nothing, so the block is cut
    between the free sites left and right of the bond.
    """
    if not 1 <= j <= state.L - 1:
        raise ValueError(f"bond {j} outside [1, {state.L - 1}]")
    block = state.block
    n = block.size.bit_length() - 1
    left = min(max(j - state.offset, 0), n)  # free sites on the left of the bond
    m = block.reshape(-1, 1 << left)  # rows: the free sites right of the bond, columns: left
    rho = m.T @ m.conj() if 2 * left <= n else m @ m.conj().T
    return von_neumann_entropy(rho / np.trace(rho).real)


def bond_entropy_profile(state: StateVector) -> np.ndarray:
    """Bond entropy at every bond 1 .. L-1."""
    return np.array([bond_entropy(state, j) for j in range(1, state.L)])
