"""Local observables: populations, thresholding, cluster statistics,
diversity measures.

Everything downstream of `local_population` is a function of the
discretized profile alone.  Cluster counting treats the virtual sites 0
and L+1 as dead, so alive runs touching the boundary are counted while
dead runs touching it are not.
"""

from __future__ import annotations

import itertools

import numpy as np

from .lattice import StateVector


def local_population(state: StateVector) -> np.ndarray:
    """Expected occupation per site, n_i = sum of |amplitude|^2 with bit i set.

    Normalized by the total probability, so integrator norm drift cannot
    leak into the profile.  Frozen sites read their bit; only the block's
    amplitudes are summed.
    """
    frozen, offset = state.frozen, state.offset
    p = np.abs(state.block) ** 2
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
    profile = np.asarray(profile)
    if not np.isfinite(profile).all():
        raise ValueError("population profile must be finite")
    return np.where(profile > 0.5, 1, 0).astype(np.int8)


def density(d) -> float:
    """Fraction of alive sites of a discretized profile."""
    d = _as_profile(d)
    return float(d.mean())


def _as_profile(d) -> np.ndarray:
    arr = np.asarray(d)
    if arr.ndim != 1 or not ((arr == 0) | (arr == 1)).all():
        raise ValueError("discretized profile must be a 1-D 0/1 sequence")
    return arr.astype(np.int8)


def _cluster_sizes(d: np.ndarray) -> tuple[list[int], list[int]]:
    """Lengths of the maximal alive runs, and of the dead runs that are
    neither the first nor the last run (so alive cells delimit both ends)."""
    runs = [(value, len(list(group))) for value, group in itertools.groupby(d.tolist())]
    return [n for value, n in runs if value], [n for value, n in runs[1:-1] if not value]


def alive_cluster_function(d, length: int) -> int:
    """Count of maximal alive runs of exactly ``length`` sites.

    Virtual dead sites delimit the lattice, so runs touching the boundary
    count like any other.
    """
    d = _as_profile(d)
    if not 1 <= length <= len(d):
        raise ValueError(f"cluster length {length} outside [1, {len(d)}]")
    return _cluster_sizes(d)[0].count(length)


def dead_cluster_function(d, length: int) -> int:
    """Count of dead runs of exactly ``length`` delimited by alive cells.

    Both delimiters must lie strictly inside the lattice, so dead runs
    touching the boundary are never counted.
    """
    d = _as_profile(d)
    if not 1 <= length <= len(d):
        raise ValueError(f"cluster length {length} outside [1, {len(d)}]")
    return _cluster_sizes(d)[1].count(length)


def diversity(d) -> int:
    """Number of distinct alive-cluster sizes present."""
    return len(set(_cluster_sizes(_as_profile(d))[0]))


def improved_diversity(d) -> float:
    """Half the sum of distinct alive and distinct interior dead cluster sizes."""
    alive, dead = _cluster_sizes(_as_profile(d))
    return 0.5 * (len(set(alive)) + len(set(dead)))
