"""Independent reference for the benchmark's correctness gate.

Nothing here imports `qgol`.  The model is rebuilt from its definition:
H = sum_{i=3}^{L-2} X_i P_i, where P_i marks two or three alive cells among
sites i-2, i-1, i+1, i+2, and site 1 is the least significant bit of a basis
index.  Sites 1, 2, L-1 and L never flip, so a Fock state stays in the
2**(L-4)-dimensional block with its boundary bits, and the block is
propagated exactly with `scipy.sparse.linalg.expm_multiply`.  The
observables are re-derived from their documented definitions.
"""

from __future__ import annotations

from math import floor, pi

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

CLASSICAL_STEP = pi / 2
CLASSICAL_WINDOW = (83.0, 100.0)
QUANTUM_WINDOW = (25.0, 30.0)

_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


# ---------------------------------------------------------------------------
# model and exact propagation


def bits_of(bitstring: str) -> np.ndarray:
    return np.array([int(c) for c in bitstring], dtype=np.int64)


def sector_basis(L: int, low: int, high: int) -> np.ndarray:
    """Full-space indices of the block with boundary bits (low, high)."""
    interior = np.arange(1 << (L - 4), dtype=np.int64)
    return low | (interior << 2) | (high << (L - 2))


def sector_hamiltonian(L: int, low: int, high: int) -> sp.csr_matrix:
    """The 0/1 coupling block of H for fixed boundary bits, in interior order."""
    full = sector_basis(L, low, high)
    rows, cols = [], []
    for site in range(3, L - 1):
        alive = sum((full >> (s - 1)) & 1 for s in (site - 2, site - 1, site + 1, site + 2))
        r = np.flatnonzero((alive == 2) | (alive == 3))
        rows.append(r)
        cols.append(r ^ (1 << (site - 3)))
    row, col = np.concatenate(rows), np.concatenate(cols)
    dim = 1 << (L - 4)
    return sp.csr_matrix((np.ones(row.size), (row, col)), shape=(dim, dim))


def full_nnz(L: int) -> int:
    """Couplings of the full H: each bulk site flips in 10 of the 16 patterns
    of its four neighbours, whatever the other L - 5 bits are."""
    return (L - 4) * 10 * (1 << (L - 4))


def boundary(bits: np.ndarray) -> tuple[int, int]:
    L = bits.size
    return int(bits[0] | bits[1] << 1), int(bits[L - 2] | bits[L - 1] << 1)


def snapshot_steps(t_max: float, dt: float, sample_every: int) -> np.ndarray:
    """Step indices of the snapshots: 0, every `sample_every` steps, and the last."""
    n_steps = int(np.floor(t_max / dt + 1e-12))
    if abs(t_max - n_steps * dt) > 1e-12 * max(1.0, t_max):
        raise ValueError("the oracle needs t_max to be a whole number of steps")
    steps = list(range(0, n_steps + 1, sample_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.array(steps)


def exact_block_states(bits: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Block amplitudes exp(-iHt)|bits> at each time, shape (len(times), 2**(L-4))."""
    L = bits.size
    low, high = boundary(bits)
    h = sector_hamiltonian(L, low, high)
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[int(sum(int(b) << k for k, b in enumerate(bits[2 : L - 2])))] = 1.0
    dts = np.diff(times)
    if times[0] != 0.0 or (dts.size and np.ptp(dts) > 1e-9 * times[-1]):
        raise ValueError("the oracle needs a uniform time grid starting at 0")
    if times.size == 1:
        return psi0[None, :]
    return expm_multiply(
        -1j * h, psi0, start=0.0, stop=float(times[-1]), num=times.size, endpoint=True
    )


def block_populations(bits: np.ndarray, block_states: np.ndarray) -> np.ndarray:
    """Site occupations n_1..n_L for each block state row."""
    L = bits.size
    prob = np.abs(block_states) ** 2
    prob /= prob.sum(axis=1, keepdims=True)
    interior = np.arange(block_states.shape[1])
    out = np.empty((block_states.shape[0], L))
    out[:, [0, 1, L - 2, L - 1]] = bits[[0, 1, L - 2, L - 1]]
    for k in range(L - 4):
        out[:, k + 2] = prob @ ((interior >> k) & 1)
    return out


# ---------------------------------------------------------------------------
# discrete observables


def discretize(profile) -> np.ndarray:
    return (np.asarray(profile) > 0.5).astype(np.int64)


def _runs(d) -> list[tuple[int, int, int]]:
    """(value, first index, length) of each maximal run."""
    out, start = [], 0
    for k in range(1, len(d) + 1):
        if k == len(d) or d[k] != d[start]:
            out.append((int(d[start]), start, k - start))
            start = k
    return out


def cluster_counts(d) -> tuple[list[int], list[int]]:
    """Alive runs of each length 1..L, and dead runs not touching either end."""
    L = len(d)
    alive, dead = [0] * L, [0] * L
    for value, start, length in _runs(d):
        if value == 1:
            alive[length - 1] += 1
        elif start > 0 and start + length < L:
            dead[length - 1] += 1
    return alive, dead


def diversity_row(d) -> list[float]:
    """density, diversity and improved diversity of a discrete profile."""
    alive, dead = cluster_counts(d)
    n_alive = sum(1 for c in alive if c)
    n_dead = sum(1 for c in dead if c)
    return [float(np.mean(d)), n_alive, 0.5 * (n_alive + n_dead)]


def classical_step(bits: np.ndarray) -> np.ndarray:
    b = np.asarray(bits)
    new = b.copy()
    for i in range(2, b.size - 2):  # zero-based bulk sites
        if b[i - 2] + b[i - 1] + b[i + 1] + b[i + 2] in (2, 3):
            new[i] ^= 1
    return new


def classical_equilibrium(bits: np.ndarray) -> list[float]:
    """Classical-window averages of density, diversity, improved diversity."""
    n_steps = int(floor(CLASSICAL_WINDOW[1] / CLASSICAL_STEP))
    rows, b = [], np.asarray(bits)
    for k in range(n_steps + 1):
        if CLASSICAL_WINDOW[0] <= k * CLASSICAL_STEP <= CLASSICAL_WINDOW[1]:
            rows.append(diversity_row(b))
        b = classical_step(b)
    return list(np.mean(np.array(rows, dtype=float), axis=0))


# ---------------------------------------------------------------------------
# quantum information


def entropy_bits(weights) -> float:
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


def _rdm(tensor: np.ndarray, axes: list[int]) -> np.ndarray:
    m = np.moveaxis(tensor, axes, range(len(axes))).reshape(1 << len(axes), -1)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def wootters(rho: np.ndarray) -> float:
    r = rho @ _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def quantum_measures(bits: np.ndarray, block_state: np.ndarray, distances=(1,)) -> dict:
    """Single-site entropies, halved pairwise MI, mean concurrence per distance
    and bond entropies of a state whose boundary sites hold `bits`.

    The four frozen sites are in product with the block, so their reduced
    states are the pure projectors onto their bits and every quantity is
    computed from the 2**(L-4) block amplitudes.
    """
    L = bits.size
    n = L - 4
    tensor = block_state.reshape((2,) * n)  # axis a holds site L - 2 - a

    def rdm(sites):
        inner = [s for s in sites if 3 <= s <= L - 2]
        rho = _rdm(tensor, [L - 2 - s for s in inner]) if inner else np.ones((1, 1))
        for s in sites:
            if s not in inner:
                rho = np.kron(rho, np.diag([1.0 - bits[s - 1], float(bits[s - 1])]))
        return rho

    singles = np.array([entropy_bits(np.linalg.eigvalsh(rdm([s]))) for s in range(1, L + 1)])
    mi, conc = {}, {d: [] for d in distances}
    for i in range(1, L + 1):
        for j in range(i + 1, L + 1):
            rho = rdm([i, j])
            s_ij = entropy_bits(np.linalg.eigvalsh(rho))
            mi[(i, j)] = max(0.0, 0.5 * (singles[i - 1] + singles[j - 1] - s_ij))
            if j - i in conc:
                conc[j - i].append(wootters(rho))
    bonds = []
    for j in range(1, L):
        k = min(max(j - 2, 0), n)  # block sites left of the cut
        m = block_state.reshape(1 << (n - k), 1 << k)
        gram = m.conj().T @ m if k <= n - k else m @ m.conj().T
        p = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
        bonds.append(entropy_bits(p / p.sum()))
    return {
        "entropies": singles,
        "mi": mi,
        "concurrence": [float(np.mean(conc[d])) for d in distances],
        "bonds": np.array(bonds),
    }
