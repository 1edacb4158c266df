"""Exact state-vector simulation of a quantum Game of Life spin chain.

The chain evolves under a Hamiltonian that flips a bulk site whenever two
or three of its nearest and next-nearest neighbours are alive, the
continuous-time quantum analog of the classical F12 automaton rule.  The
package builds the sparse Hamiltonian, integrates the Schrodinger
equation from separable Fock states, runs the classical automaton and its
stroboscopic-projective quantum equivalent, and measures populations,
cluster statistics, entanglement entropies, mutual-information networks,
concurrence, and the circulant ring model of classically recurrent
configurations.
"""

from ._version import __version__
from .circulant import (
    CommensurabilityReport,
    RingModel,
    commensurability_check,
    find_classical_cycle,
    rational_approximation,
    ring_eigensystem,
    ring_evolution,
    ring_hamiltonian,
)
from .dynamics import (
    CLASSICAL_STEP,
    ClassicalTrajectory,
    IntegrationError,
    Trajectory,
    apply_hamiltonian,
    classical_f12_step,
    classical_trajectory,
    energy_expectation,
    evolve_exact,
    evolve_rk4,
    stroboscopic_quantum,
)
from .hamiltonian import (
    SparseHamiltonian,
    build_hamiltonian,
    dense_hamiltonian,
    frozen_sector,
)
from .lattice import (
    MIN_SITES,
    SpinConfig,
    StateVector,
    config_from_index,
    fock_index,
    make_fock_state,
    norm,
    overlap,
    sector_state,
)
from .networks import disparity, network_clustering, network_density
from .observables import (
    alive_cluster_function,
    dead_cluster_function,
    density,
    discretize,
    diversity,
    improved_diversity,
    local_population,
)
from .quantum_info import (
    average_concurrence,
    bond_entropy,
    bond_entropy_profile,
    concurrence,
    mutual_information_matrix,
    reduced_density_matrix,
    single_site_entropies,
    von_neumann_entropy,
)
from .runner import (
    RunConfig,
    equilibrium_average,
    run,
    sample_random_fock,
)

__all__ = [name for name in dir() if not name.startswith("_")]
