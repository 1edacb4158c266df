"""Ring model for classically recurrent configurations.

A classical cycle of period n maps to a quantum particle hopping on a
ring of n sites, one per configuration.  The hopping matrix is circulant,
so its eigensystem is the discrete Fourier basis; periodic quantum
dynamics would additionally require pairwise commensurate energy gaps,
which the commensurability check inspects numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, pi

import numpy as np

from .dynamics import classical_f12_step
from .lattice import SpinConfig


@dataclass(frozen=True)
class RingModel:
    """Hopping ring of ``n`` configurations with energy scale ``hopping``."""

    n: int
    hopping: float
    eigenvalues: np.ndarray  # E_m = 2 J cos(2 pi m / n)
    eigenvectors: np.ndarray  # column m: exp(-2 pi i k m / n) / sqrt(n)


@dataclass(frozen=True)
class CommensurabilityReport:
    """Pairwise rationality analysis of the nonzero energy gaps."""

    n: int
    gaps: np.ndarray  # all positive gaps between distinct energies
    ratios: np.ndarray  # ratios[a, b] = gaps[a] / gaps[b]
    rational: np.ndarray  # bool mask per ratio
    fractions: list  # Fraction or None per ratio, row-major
    commensurate: bool


def find_classical_cycle(config: SpinConfig, max_steps: int):
    """Detect the first revisited configuration along the rule orbit.

    Returns (entry_offset, period) for the eventual cycle, or None if no
    configuration repeats within ``max_steps`` applications of the rule.
    A fixed point reports period 1.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    seen = {config: 0}
    current = config
    for step in range(1, max_steps + 1):
        current = classical_f12_step(current)
        if current in seen:
            entry = seen[current]
            return entry, step - entry
        seen[current] = step
    return None


def ring_hamiltonian(n: int, hopping: float = 1.0) -> np.ndarray:
    """Dense nearest-neighbour ring matrix with |k><k+1| wrapped at n.

    For n = 2 both hopping terms land on the same pair, giving matrix
    element 2J.
    """
    if n < 2:
        raise ValueError("ring needs at least two configurations")
    h = np.zeros((n, n))
    for k in range(n):
        h[k, (k + 1) % n] += hopping
        h[(k + 1) % n, k] += hopping
    return h


def ring_eigensystem(n: int, hopping: float = 1.0) -> RingModel:
    """Closed-form circulant eigensystem, residual-checked against the matrix.

    Eigenvalue m is 2J cos(2 pi m / n) with Fourier eigenvector components
    exp(-2 pi i k m / n) / sqrt(n).
    """
    if n < 2:
        raise ValueError("ring needs at least two configurations")
    m = np.arange(n)
    eigenvalues = 2.0 * hopping * np.cos(2.0 * pi * m / n)
    k = m[:, None]
    eigenvectors = np.exp(-2j * pi * k * m[None, :] / n) / np.sqrt(n)
    h = ring_hamiltonian(n, hopping)
    residual = np.linalg.norm(h @ eigenvectors - eigenvectors * eigenvalues[None, :])
    if not residual <= 1e-10 * max(1.0, abs(hopping)):  # a NaN residual fails too
        raise AssertionError(f"circulant eigensystem residual {residual:.3e}")
    return RingModel(n=n, hopping=hopping, eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def ring_evolution(model: RingModel, k0: int, t: float) -> np.ndarray:
    """Occupation probabilities |<k| exp(-i H t) |k0>|^2 via the spectral sum."""
    if not 0 <= k0 < model.n:
        raise ValueError(f"configuration index {k0} outside [0, {model.n})")
    phases = np.exp(-1j * model.eigenvalues * t)
    amplitudes = model.eigenvectors @ (phases * model.eigenvectors[k0].conj())
    probabilities = np.abs(amplitudes) ** 2
    total = probabilities.sum()
    if not abs(total - 1.0) <= 1e-10:  # a NaN total fails too
        raise AssertionError(f"ring evolution lost probability: sum = {total!r}")
    return probabilities


def rational_approximation(x: float, tolerance: float = 1e-9, q_max: int = 10**6):
    """Smallest-denominator fraction for ``x`` if its continued fraction
    terminates; None for numbers that behave irrationally.

    The expansion is declared terminated when a remainder drops below
    ``tolerance`` (floating-point images of true rationals hit the noise
    floor immediately), and abandoned once denominators pass ``q_max``.
    Merely *approximable* numbers - every real has approximants below any
    tolerance by Dirichlet's theorem - are therefore not flagged rational.
    """
    if x < 0:
        result = rational_approximation(-x, tolerance, q_max)
        return -result if result is not None else None
    p_prev, q_prev = 1, 0
    a = floor(x)
    p, q = a, 1
    remainder = x - a
    for _ in range(64):
        if q > q_max:
            return None
        if remainder < tolerance:
            return Fraction(p, q)
        value = 1.0 / remainder
        a = floor(value)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        remainder = value - a
    return None


def commensurability_check(
    n: int, tolerance: float = 1e-9, q_max: int = 10**6
) -> CommensurabilityReport:
    """Test every pair of distinct ring energy gaps for a rational ratio.

    Gaps are taken between distinct eigenvalue levels of the n-ring (in
    units of J, which scales out).  The verdict is commensurate iff every
    gap ratio admits a terminating rational representation with
    denominator at most ``q_max``.
    """
    model = ring_eigensystem(n, hopping=1.0)
    levels = np.unique(np.round(model.eigenvalues, 12))
    gaps = []
    for a in range(len(levels)):
        for b in range(a + 1, len(levels)):
            gaps.append(abs(levels[b] - levels[a]))
    gaps = np.sort(np.asarray(gaps))[::-1]
    count = len(gaps)
    ratios = np.ones((count, count))
    rational = np.ones((count, count), dtype=bool)
    fractions = []
    for a in range(count):
        for b in range(count):
            ratio = gaps[a] / gaps[b]
            ratios[a, b] = ratio
            approx = rational_approximation(ratio, tolerance, q_max)
            rational[a, b] = approx is not None
            fractions.append(approx)
    return CommensurabilityReport(
        n=n,
        gaps=gaps,
        ratios=ratios,
        rational=rational,
        fractions=fractions,
        commensurate=bool(rational.all()),
    )
