import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgol import disparity, network_clustering, network_density


def uniform(L, w=1.0):
    return w * (np.ones((L, L)) - np.eye(L))


def single_link(L, i, j, w=1.0):
    m = np.zeros((L, L))
    m[i, j] = m[j, i] = w
    return m


def random_mi(seed, L=12):
    rng = np.random.default_rng(seed)
    m = rng.random((L, L))
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 0.0)
    return m


def test_density_examples():
    assert network_density(np.zeros((4, 4))) == 0.0
    assert network_density(uniform(6, 0.37)) == pytest.approx(0.37)
    assert network_density(single_link(4, 0, 1)) == pytest.approx(1 / 6)


def test_disparity_examples():
    assert disparity(uniform(7)) == pytest.approx(1 / 6)
    assert disparity(single_link(4, 0, 1)) == pytest.approx(0.5)
    assert disparity(np.zeros((5, 5))) == 0.0


def test_disparity_counted_round_off_node_as_full_node():
    # node 3's links are all round-off: it contributes 0, not 1/3
    m = np.zeros((4, 4))
    m[:3, :3] = uniform(3)
    m[3, :3] = m[:3, 3] = 1e-17
    assert disparity(m) == pytest.approx(3 * 0.5 / 4, abs=1e-12)


def test_clustering_examples():
    assert network_clustering(np.zeros((4, 4))) == 0.0
    w = 0.6
    assert network_clustering(uniform(3, w)) == pytest.approx(w)
    assert network_clustering(single_link(4, 0, 1)) == 0.0  # an edge has no triangles


def test_permutation_invariance(rng):
    m = random_mi(3)
    perm = rng.permutation(12)
    p = m[np.ix_(perm, perm)]
    assert network_density(p) == pytest.approx(network_density(m), abs=1e-12)
    assert disparity(p) == pytest.approx(disparity(m), abs=1e-12)
    assert network_clustering(p) == pytest.approx(network_clustering(m), abs=1e-12)


@given(st.integers(0, 10**6), st.floats(0.01, 100.0))
@settings(max_examples=30)
def test_homogeneity_scaling(seed, alpha):
    m = random_mi(seed)
    assert network_density(alpha * m) == pytest.approx(alpha * network_density(m), rel=1e-10)
    assert network_clustering(alpha * m) == pytest.approx(
        alpha * network_clustering(m), rel=1e-10
    )
    assert disparity(alpha * m) == pytest.approx(disparity(m), rel=1e-10)


def test_disparity_range(rng):
    for seed in range(20):
        y = disparity(random_mi(seed))
        assert 0.0 <= y <= 1.0


@pytest.mark.parametrize("measure", [network_density, disparity, network_clustering])
def test_nan_adjacency_rejected(measure):
    m = single_link(3, 0, 1, np.nan)
    with pytest.raises(ValueError, match="finite"):
        measure(m)


def test_matrix_validation():
    with pytest.raises(ValueError):
        network_density(np.ones((3, 4)))
    bad = uniform(4)
    bad[0, 1] = 2.0  # asymmetric
    with pytest.raises(ValueError):
        disparity(bad)
    with pytest.raises(ValueError):
        network_clustering(np.eye(4))  # nonzero diagonal
