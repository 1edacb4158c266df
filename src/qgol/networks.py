"""Weighted-network statistics over a mutual-information matrix."""

from __future__ import annotations

import numpy as np

#: Clustering denominators and node strengths this small count as 0.
_DENOMINATOR_FLOOR = 1e-14


def _check_matrix(mi) -> np.ndarray:
    mi = np.asarray(mi, dtype=float)
    if mi.ndim != 2 or mi.shape[0] != mi.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if not np.isfinite(mi).all():
        raise ValueError("adjacency weights must be finite")
    if np.abs(mi - mi.T).max() > 1e-10:
        raise ValueError("adjacency matrix must be symmetric")
    if np.abs(np.diag(mi)).max() > 1e-10:
        raise ValueError("adjacency matrix must have zero diagonal")
    if mi.min() < -1e-10:
        raise ValueError("adjacency weights must be nonnegative")
    return mi


def network_density(mi) -> float:
    """Mean link weight: the full double sum divided by L(L-1)."""
    mi = _check_matrix(mi)
    n = mi.shape[0]
    return float(mi.sum() / (n * (n - 1)))


def disparity(mi) -> float:
    """Average per-node backbone measure sum_j w_ij^2 / (sum_k w_ik)^2.

    Nodes whose strength is at most `_DENOMINATOR_FLOOR` contribute 0, so a
    product state has disparity 0 and round-off links count as no links.
    """
    mi = _check_matrix(mi)
    strength = mi.sum(axis=1)
    squared = (mi**2).sum(axis=1)
    per_node = np.divide(
        squared,
        strength**2,
        out=np.zeros_like(strength),
        where=strength > _DENOMINATOR_FLOOR,
    )
    return float(per_node.mean())


def network_clustering(mi) -> float:
    """Weighted transitivity Tr(W^3) / sum_{i != j} (W^2)_ij; 0 when the
    denominator vanishes (no two-paths, hence no triangles)."""
    mi = _check_matrix(mi)
    w2 = mi @ mi
    denominator = w2.sum() - np.trace(w2)
    if denominator < _DENOMINATOR_FLOOR:
        return 0.0
    numerator = float((w2 * mi).sum())  # Tr(W^3) for symmetric W
    return numerator / denominator
