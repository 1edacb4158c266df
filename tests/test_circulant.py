import numpy as np
import pytest
from fractions import Fraction
from scipy.linalg import expm

from qgol import (
    SpinConfig,
    classical_f12_step,
    commensurability_check,
    find_classical_cycle,
    rational_approximation,
    ring_eigensystem,
    ring_evolution,
    ring_hamiltonian,
)


def test_cycle_fixed_point():
    assert find_classical_cycle(SpinConfig((0,) * 7), 10) == (0, 1)


def test_cycle_period_two_pair():
    # 01010 <-> 01110: flipping site 3 leaves its own neighbourhood intact
    a = SpinConfig.from_string("01010")
    b = SpinConfig.from_string("01110")
    assert classical_f12_step(a) == b and classical_f12_step(b) == a
    assert find_classical_cycle(a, 100) == (0, 2)


def test_every_orbit_closes():
    # pigeonhole: any config on a finite lattice cycles within 2**L steps
    for index in range(1 << 6):
        cfg = SpinConfig(tuple((index >> j) & 1 for j in range(6)))
        assert find_classical_cycle(cfg, 1 << 6) is not None


def test_cycle_respects_budget():
    blinker = SpinConfig.from_string("00001010000")
    assert find_classical_cycle(blinker, 2) is None  # enters a 6-cycle after 1 step
    assert find_classical_cycle(blinker, 100) == (1, 6)


def test_ring_eigenvalues():
    assert np.allclose(sorted(ring_eigensystem(2, 1.0).eigenvalues), [-2, 2])
    assert np.allclose(sorted(ring_eigensystem(3, 1.0).eigenvalues), [-1, -1, 2])
    assert np.allclose(sorted(ring_eigensystem(4, 1.0).eigenvalues), [-2, 0, 0, 2])
    with pytest.raises(ValueError):
        ring_eigensystem(1)


def test_ring_spectrum_reflection():
    e = ring_eigensystem(9).eigenvalues
    for m in range(1, 9):
        assert e[m] == pytest.approx(e[9 - m])


def test_ring_residuals_up_to_64():
    for n in range(2, 65):
        model = ring_eigensystem(n, 1.0)
        h = ring_hamiltonian(n, 1.0)
        residual = np.abs(h @ model.eigenvectors - model.eigenvectors * model.eigenvalues).max()
        assert residual <= 1e-10


def test_ring_evolution_delta_at_zero():
    model = ring_eigensystem(6)
    assert np.allclose(ring_evolution(model, 2, 0.0), np.eye(6)[2], atol=1e-12)


def test_ring_evolution_two_site_cosine():
    model = ring_eigensystem(2, 1.0)
    for t in (0.0, 0.3, 1.1, 2.5):
        p = ring_evolution(model, 0, t)
        assert p[0] == pytest.approx(np.cos(2 * t) ** 2, abs=1e-12)


def test_ring_evolution_matches_expm():
    for n in range(2, 11):
        model = ring_eigensystem(n, 0.7)
        u = expm(-1j * ring_hamiltonian(n, 0.7) * 1.9)
        oracle = np.abs(u[:, n // 2]) ** 2
        assert np.abs(ring_evolution(model, n // 2, 1.9) - oracle).max() < 1e-8


def test_ring_evolution_long_time_average_nondegenerate():
    # n = 2 has a nondegenerate spectrum: the time average is the diagonal ensemble
    model = ring_eigensystem(2, 1.0)
    times = np.linspace(0, 400, 40001)
    avg = np.mean([ring_evolution(model, 0, t) for t in times], axis=0)
    v = model.eigenvectors
    diagonal = (np.abs(v) ** 2) @ (np.abs(v[0]) ** 2)
    assert np.abs(avg - diagonal).max() < 1e-3


def test_ring_evolution_index_check():
    with pytest.raises(ValueError):
        ring_evolution(ring_eigensystem(4), 4, 1.0)


def test_rational_approximation_cases():
    assert rational_approximation(2.0) == Fraction(2, 1)
    assert rational_approximation(4 / 3) == Fraction(4, 3)
    assert rational_approximation(0.5) == Fraction(1, 2)
    golden_sq = (1 + np.sqrt(5)) / 2 + 1  # phi^2, continued fraction [2; 1, 1, ...]
    assert rational_approximation(float(golden_sq)) is None
    assert rational_approximation(float(np.sqrt(2))) is None


def test_commensurability_examples():
    assert commensurability_check(2).commensurate  # single gap
    report = commensurability_check(4)
    assert report.commensurate
    assert sorted(report.gaps) == pytest.approx([2.0, 2.0, 4.0])
    assert not commensurability_check(5).commensurate
    assert commensurability_check(3).commensurate  # levels 2J, -J: single gap
    assert commensurability_check(6).commensurate  # levels 2, 1, -1, -2


def test_nan_fails_the_ring_checks():
    with pytest.raises(AssertionError, match="residual"):
        ring_eigensystem(4, float("nan"))
    with pytest.raises(AssertionError, match="probability"):
        ring_evolution(ring_eigensystem(4), 0, float("nan"))
