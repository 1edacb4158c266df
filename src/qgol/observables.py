"""Local observables: populations, thresholding, cluster statistics,
diversity measures.

Everything downstream of `local_population` is a function of the
discretized profile alone.  Cluster counting treats the virtual sites 0
and L+1 as dead, so alive runs touching the boundary are counted while
dead runs touching it are not.
"""

from __future__ import annotations

import numpy as np

from .lattice import StateVector


def local_population(state: StateVector) -> np.ndarray:
    """Expected occupation per site, n_i = sum of |amplitude|^2 with bit i set.

    Normalized by the total probability, so integrator norm drift cannot
    leak into the profile.  Frozen sites of a sector-form state read their
    bit; only the remaining amplitudes are summed.
    """
    frozen, offset, amps = state.factors()
    p = np.abs(amps) ** 2
    p /= p.sum()
    return np.array(
        [
            frozen[s] if s in frozen else p.reshape(-1, 2, 1 << (s - 1 - offset))[:, 1, :].sum()
            for s in range(1, state.L + 1)
        ],
        dtype=float,
    )


def discretize(profile) -> np.ndarray:
    """Threshold a population profile at 0.5; ties (n_i = 0.5) go to dead."""
    return np.where(np.asarray(profile) > 0.5, 1, 0).astype(np.int8)


def density(d) -> float:
    """Fraction of alive sites of a discretized profile."""
    d = _as_profile(d)
    return float(d.mean())


def _as_profile(d) -> np.ndarray:
    arr = np.asarray(d)
    if arr.ndim != 1 or not np.isin(arr, (0, 1)).all():
        raise ValueError("discretized profile must be a 1-D 0/1 sequence")
    return arr.astype(np.int8)


def _runs(d: np.ndarray, value: int) -> list[tuple[int, int]]:
    """Maximal runs of ``value`` as (first_site, last_site), 1-indexed."""
    runs = []
    i = 0
    n = len(d)
    while i < n:
        if d[i] == value:
            j = i
            while j < n and d[j] == value:
                j += 1
            runs.append((i + 1, j))
            i = j
        else:
            i += 1
    return runs


def alive_cluster_function(d, length: int) -> int:
    """Count of maximal alive runs of exactly ``length`` sites.

    Virtual dead sites delimit the lattice, so runs touching the boundary
    count like any other.
    """
    d = _as_profile(d)
    if not 1 <= length <= len(d):
        raise ValueError(f"cluster length {length} outside [1, {len(d)}]")
    return sum(1 for a, b in _runs(d, 1) if b - a + 1 == length)


def dead_cluster_function(d, length: int) -> int:
    """Count of dead runs of exactly ``length`` delimited by alive cells.

    Both delimiters must lie strictly inside the lattice, so dead runs
    touching the boundary are never counted.
    """
    d = _as_profile(d)
    if not 1 <= length <= len(d):
        raise ValueError(f"cluster length {length} outside [1, {len(d)}]")
    return sum(
        1
        for a, b in _runs(d, 0)
        if b - a + 1 == length and a > 1 and b < len(d)
    )


def diversity(d) -> int:
    """Number of distinct alive-cluster sizes present."""
    d = _as_profile(d)
    return len({b - a + 1 for a, b in _runs(d, 1)})


def improved_diversity(d) -> float:
    """Half the sum of distinct alive and distinct interior dead cluster sizes."""
    d = _as_profile(d)
    alive_sizes = {b - a + 1 for a, b in _runs(d, 1)}
    dead_sizes = {
        b - a + 1 for a, b in _runs(d, 0) if a > 1 and b < len(d)
    }
    return 0.5 * (len(alive_sizes) + len(dead_sizes))
