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

_SIGMA_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def reduced_density_matrix(state: StateVector, sites) -> np.ndarray:
    """Partial trace onto ``sites`` (1-indexed, ordered, at most 12).

    The first listed site becomes the least significant bit of the reduced
    index.  Returns a dense 2**k x 2**k complex matrix, normalized by
    <psi|psi> so that integrator norm drift never leaks into the trace.
    Frozen sites of a sector-form state enter as the pure projectors onto
    their bits; only the remaining amplitudes are traced over.
    """
    sites = list(sites)
    k = len(sites)
    if k == 0 or k > 12:
        raise ValueError("retain between 1 and 12 sites")
    if len(set(sites)) != k:
        raise ValueError(f"duplicate sites in {sites}")
    if any(not 1 <= s <= state.L for s in sites):
        raise ValueError(f"sites {sites} outside [1, {state.L}]")
    frozen, offset, amps = state.factors()
    free = [s for s in sites if s not in frozen]
    n = amps.size.bit_length() - 1
    tensor = amps.reshape((2,) * n)  # axis a <-> site offset + n - a
    keep_axes = [offset + n - s for s in free]
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
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError(f"density matrix trace {np.trace(rho)!r} != 1")
    return rho


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr(rho log2 rho) over eigenvalues above `EIGENVALUE_FLOOR`."""
    rho = _check_density_matrix(rho)
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > EIGENVALUE_FLOOR]
    return max(0.0, float(-(lam * np.log2(lam)).sum()))


def single_site_entropies(state: StateVector) -> np.ndarray:
    """Entanglement entropy of every single-site reduced state.

    The full 2x2 reduced matrix is built each time; coherences are not
    assumed to vanish.
    """
    return np.array(
        [
            von_neumann_entropy(reduced_density_matrix(state, [s]))
            for s in range(1, state.L + 1)
        ]
    )


def two_site_entropy(state: StateVector, i: int, j: int) -> float:
    """Entropy of the two-site reduced state; symmetric in (i, j)."""
    if i == j:
        raise ValueError("two-site entropy needs two distinct sites")
    return von_neumann_entropy(reduced_density_matrix(state, [i, j]))


def mutual_information_matrix(state: StateVector) -> np.ndarray:
    """Pairwise mutual information (S_i + S_j - S_ij) / 2 as an L x L matrix.

    The factor 1/2 is the convention used throughout; diagonal entries are
    zero and negative round-off is clamped to zero.
    """
    L = state.L
    singles = single_site_entropies(state)
    mi = np.zeros((L, L))
    for i in range(1, L + 1):
        for j in range(i + 1, L + 1):
            value = 0.5 * (
                singles[i - 1] + singles[j - 1] - two_site_entropy(state, i, j)
            )
            if value < -1e-10:
                raise ValueError(
                    f"mutual information {value!r} below round-off floor at ({i}, {j})"
                )
            mi[i - 1, j - 1] = mi[j - 1, i - 1] = max(value, 0.0)
    return mi


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Uses the eigenvalues of rho @ rho_tilde (rho_tilde the spin-flipped
    conjugate), whose square roots equal the singular chain of the
    textbook matrix-square-root construction.  Negative real parts beyond
    1e-8 indicate an invalid input and raise.
    """
    rho = _check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 matrix, got {rho.shape}")
    rho_tilde = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    lam = np.linalg.eigvals(rho @ rho_tilde)
    re = lam.real
    if re.min() < -1e-8 or np.abs(lam.imag).max() > 1e-8:
        raise ValueError("rho * rho_tilde has eigenvalues too far from the real axis")
    roots = np.sort(np.sqrt(np.clip(re, 0.0, None)))[::-1]
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def average_concurrence(state: StateVector, d: int) -> float:
    """Mean concurrence over every site pair (i, i + d), boundaries included."""
    if not 1 <= d <= state.L - 1:
        raise ValueError(f"distance {d} outside [1, {state.L - 1}]")
    values = [
        concurrence(reduced_density_matrix(state, [i, i + d]))
        for i in range(1, state.L - d + 1)
    ]
    return float(np.mean(values))


def bond_entropy(state: StateVector, j: int) -> float:
    """Schmidt entropy of the bipartition sites 1..j | j+1..L.

    Both halves share one nonzero spectrum, so this is the von Neumann
    entropy of the smaller half's reduced density matrix (at most
    2**(L//2) square): the Gram matrix of the reshaped amplitudes.  Frozen
    sites are in product with the rest and add nothing, so a sector-form
    state cuts its block between the free sites left and right of the bond.
    """
    if not 1 <= j <= state.L - 1:
        raise ValueError(f"bond {j} outside [1, {state.L - 1}]")
    _, offset, amps = state.factors()
    n = amps.size.bit_length() - 1
    left = min(max(j - offset, 0), n)  # free sites on the left of the bond
    m = amps.reshape(-1, 1 << left)  # rows: the free sites right of the bond, columns: left
    rho = m.T @ m.conj() if 2 * left <= n else m @ m.conj().T
    return von_neumann_entropy(rho / np.trace(rho).real)


def bond_entropy_profile(state: StateVector) -> np.ndarray:
    """Bond entropy at every bond 1 .. L-1."""
    return np.array([bond_entropy(state, j) for j in range(1, state.L)])
