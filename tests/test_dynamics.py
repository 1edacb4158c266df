import numpy as np
import pytest
import scipy.sparse as sp

from qgol import (
    CLASSICAL_STEP,
    IntegrationError,
    SpinConfig,
    StateVector,
    apply_hamiltonian,
    build_hamiltonian,
    classical_f12_step,
    classical_trajectory,
    config_from_index,
    dense_hamiltonian,
    energy_expectation,
    evolve_exact,
    evolve_rk4,
    fock_index,
    make_fock_state,
    overlap,
    stroboscopic_quantum,
)
import qgol.dynamics
from qgol.dynamics import _restrict, _spectral_bound, snapshot_grid
from qgol.hamiltonian import frozen_sector
from qgol.lattice import sector_state

BLINKER_11 = "00001010000"

# hand-applied rule, half-cell-per-step light cone
BLINKER_TABLE = [
    "00001010000",
    "00001110000",
    "00010001000",
    "00010101000",
    "00011011000",
    "00110001100",
]


def test_all_dead_fixed_point():
    cfg = SpinConfig((0,) * 9)
    assert classical_f12_step(cfg) == cfg


def test_blinker_steps():
    cfg = SpinConfig.from_string(BLINKER_11)
    assert classical_f12_step(cfg).to_string() == "00001110000"
    assert classical_f12_step(classical_f12_step(cfg)).to_string() == "00010001000"


def test_classical_trajectory_examples():
    traj = classical_trajectory(SpinConfig((0,) * 9), 10)
    assert len(traj.steps) == 11
    assert all(c == traj.steps[0] for c in traj.steps)

    traj = classical_trajectory(SpinConfig.from_string(BLINKER_11), 5)
    assert [c.to_string() for c in traj.steps] == BLINKER_TABLE


def test_classical_boundaries_frozen(rng):
    cfg = config_from_index(int(rng.integers(0, 1 << 10)), 10)
    traj = classical_trajectory(cfg, 30)
    for c in traj.steps:
        for site in (1, 2, 9, 10):
            assert c.bit(site) == cfg.bit(site)


def test_classical_times_grid():
    traj = classical_trajectory(SpinConfig((0,) * 9), 3)
    assert np.allclose(traj.times, CLASSICAL_STEP * np.arange(4))


def test_rk4_dead_state_constant(h5):
    # the dead block has no couplings, so the expansion's bound a is 0
    psi = make_fock_state(SpinConfig((0,) * 5))
    assert _spectral_bound(_restrict(h5, psi)[1][0]) == 0
    tr = evolve_rk4(h5, psi, 2.0, sample_every=50)
    for state in tr.states:
        assert state.amplitudes[0] == pytest.approx(1.0, abs=1e-12)


def test_rk4_two_level_blinker(h5):
    # span{01010, 01110} is an invariant two-level system: population of
    # site 3 follows sin^2(t), with a full swap at t = pi/2
    psi0 = make_fock_state(SpinConfig.from_string("01010"))
    tr = evolve_rk4(h5, psi0, np.pi / 2, dt=0.01, sample_every=1 << 30)
    final = tr.states[-1]
    target = make_fock_state(SpinConfig.from_string("01110"))
    assert abs(overlap(target, final)) == pytest.approx(1.0, abs=1e-8)

    tr = evolve_rk4(h5, psi0, np.pi / 4, dt=0.01, sample_every=1 << 30)
    p = np.abs(tr.states[-1].amplitudes) ** 2
    assert p[fock_index(SpinConfig.from_string("01110"))] == pytest.approx(0.5, abs=1e-8)


def test_rk4_first_order_amplitude(h11):
    # leading order: amplitude -i*t appears on the singly-coupled config
    t = 1e-3
    tr = evolve_rk4(h11, make_fock_state(SpinConfig.from_string(BLINKER_11)), t, dt=1e-4, sample_every=1 << 30)
    amp = tr.states[-1].amplitudes[fock_index(SpinConfig.from_string("00001110000"))]
    assert amp == pytest.approx(-1j * t, rel=1e-5)


def test_rk4_matches_exact_oracle(h8, rng):
    for _ in range(3):
        psi = make_fock_state(config_from_index(int(rng.integers(0, 1 << 8)), 8))
        approx = evolve_rk4(h8, psi, 5.0, dt=0.01, sample_every=1 << 30).states[-1]
        exact = evolve_exact(h8, psi, 5.0)
        assert np.linalg.norm(approx.amplitudes - exact.amplitudes) < 1e-6


def test_rk4_multi_sector_superposition_matches_exact(h8):
    # the three configurations carry three different boundary patterns
    configs = [SpinConfig.from_string(s) for s in ("01011010", "10110101", "11001011")]
    amps = np.zeros(1 << 8, dtype=complex)
    for c in configs:
        amps[fock_index(c)] = 1 / np.sqrt(3)
    psi = StateVector(amps)
    approx = evolve_rk4(h8, psi, 5.0, sample_every=1 << 30).states[-1]
    exact = evolve_exact(h8, psi, 5.0)
    assert np.linalg.norm(approx.amplitudes - exact.amplitudes) < 1e-6
    boundary = np.arange(1 << 8) & 0b11000011  # sites 1, 2, 7 and 8
    for c in configs:  # each boundary sector keeps its weight of 1/3
        sector = boundary == (fock_index(c) & 0b11000011)
        assert np.sum(np.abs(approx.amplitudes[sector]) ** 2) == pytest.approx(1 / 3)


def test_rk4_norm_and_energy_conservation(h8):
    c1 = SpinConfig.from_string("01011010")
    c2 = c1.flip(4)
    amps = np.zeros(1 << 8, dtype=complex)
    amps[fock_index(c1)] = amps[fock_index(c2)] = 1 / np.sqrt(2)
    psi = StateVector(amps)
    energies = []
    tr = evolve_rk4(
        h8, psi, 20.0, sample_every=100,
        observer=lambda t, s: energies.append(energy_expectation(h8, s)),
        keep_states=False,
    )
    assert tr.norm_drift < 1e-6
    energies = np.array(energies)
    assert energies[0] != 0.0
    assert np.abs(energies - energies[0]).max() / abs(energies[0]) < 1e-6


def test_rk4_conserves_the_squared_norm_of_h_psi_from_a_fock_start():
    # <H> is 0 on a Fock state; <H^2> = |H psi|^2 is conserved and counts its firing sites
    h14 = build_hamiltonian(14)
    blinker = make_fock_state(SpinConfig.from_string("00001101000000"))
    squares = []
    tr = evolve_rk4(
        h14, blinker, 100.0, dt=0.01, sample_every=200, keep_states=False,
        observer=lambda t, s: squares.append(np.vdot(hs := apply_hamiltonian(h14, s), hs).real),
    )
    squares = np.array(squares)
    assert squares[0] == 3.0  # sites 4, 6 and 7 fire
    assert tr.norm_drift < 1e-6
    assert np.abs(squares - squares[0]).max() / squares[0] <= 1e-6


@pytest.mark.parametrize("bits", ["00000101000000", "00110110101100"])
def test_rk4_is_fourth_order_against_the_exact_oracle(bits):
    h14 = build_hamiltonian(14)
    psi = make_fock_state(SpinConfig.from_string(bits))
    exact = evolve_exact(h14, psi, 10.0).amplitudes
    errors = [
        np.linalg.norm(evolve_rk4(h14, psi, 10.0, dt=dt, sample_every=1 << 30)
                       .states[-1].amplitudes - exact)
        for dt in (0.02, 0.01, 0.005)
    ]
    ratios = np.array(errors[:-1]) / errors[1:]  # halving dt divides the error by 2**4
    assert np.all((15.5 <= ratios) & (ratios <= 16.5)), ratios


def test_rk4_time_reversal(h8):
    # H is real symmetric, so conjugation reverses the evolution direction
    psi = make_fock_state(SpinConfig.from_string("00110100"))
    forward = evolve_rk4(h8, psi, 4.0, sample_every=1 << 30).states[-1]
    back = evolve_rk4(
        h8, StateVector(np.conj(forward.amplitudes), norm_tol=1e-4), 4.0, sample_every=1 << 30
    ).states[-1]
    assert np.linalg.norm(np.conj(back.amplitudes) - psi.amplitudes) < 1e-6


def test_rk4_boundary_populations_frozen(h8):
    from qgol import local_population

    psi = make_fock_state(SpinConfig.from_string("10110101"))
    profiles = []
    evolve_rk4(
        h8, psi, 5.0, sample_every=100,
        observer=lambda t, s: profiles.append(local_population(s)),
        keep_states=False,
    )
    profiles = np.array(profiles)
    for site in (1, 2, 7, 8):
        assert np.abs(profiles[:, site - 1] - profiles[0, site - 1]).max() < 1e-12


def test_fock_evolution_stays_in_sector_form():
    # neither the full operator nor a full snapshot vector is built
    from qgol import build_hamiltonian, local_population, mutual_information_matrix

    h = build_hamiltonian(10)
    psi = make_fock_state(SpinConfig.from_string("1101011001"))
    tr = evolve_rk4(
        h, psi, 1.0, sample_every=25,
        observer=lambda t, s: (local_population(s), mutual_information_matrix(s)),
    )
    assert "matrix" not in vars(h)
    for state in [psi, *tr.states]:
        assert state.sector == (0b11, 0b10)
        assert "amplitudes" not in vars(state)


def _complex_rk4(h, initial, t_max, dt, sample_every):
    """Complex RK4 stepped one step at a time: each snapshot's amplitudes
    on the state's sectors, and the largest norm drift."""
    n_full, remainder, steps, _ = snapshot_grid(t_max, dt, sample_every)
    _, blocks, _, psi = _restrict(h, initial)
    matrix = blocks[0] if len(blocks) == 1 else sp.block_diag(blocks, format="csr")

    def rhs(v):
        return (matrix @ v.imag) - 1j * (matrix @ v.real)

    snapshots = [psi]
    for step in range(1, int(steps[-1]) + 1):
        step_dt = dt if step <= n_full else remainder
        k1 = rhs(psi)
        k2 = rhs(psi + (0.5 * step_dt) * k1)
        k3 = rhs(psi + (0.5 * step_dt) * k2)
        k4 = rhs(psi + step_dt * k3)
        psi = psi + (step_dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step in steps:
            snapshots.append(psi)
    return snapshots, max(abs(float(np.linalg.norm(v)) - 1.0) for v in snapshots)


def _start(kind, L):
    bulk = "0110" * (L // 4)
    if kind == "even-fock":
        return make_fock_state(SpinConfig.from_string("10" + bulk[: L - 4] + "01"))
    if kind == "odd-fock":
        return make_fock_state(SpinConfig.from_string("11" + bulk[: L - 4] + "01"))
    rng = np.random.default_rng(L)
    if kind == "complex":
        block = rng.normal(size=1 << (L - 4)) + 1j * rng.normal(size=1 << (L - 4))
        return sector_state(L, 0b10, 0b11, block / np.linalg.norm(block))
    amps = np.zeros(1 << L, dtype=complex)  # two boundary sectors, unequal complex weights
    amps[fock_index(SpinConfig.from_string("01" + bulk[: L - 4] + "10"))] = 0.6
    amps[fock_index(SpinConfig.from_string("00" + bulk[1 : L - 3] + "11"))] = 0.8j
    return StateVector(amps)


def _check_against_stepped_rk4(L, kind, t_max, sample_every, tol):
    # the expansion is RK4's own map between snapshots: it differs from the
    # stepped loop by rounding, far less than RK4 differs from exp(-iHt)
    h = build_hamiltonian(L)
    initial = _start(kind, L)
    tr = evolve_rk4(h, initial, t_max, sample_every=sample_every)
    expected, drift = _complex_rk4(h, initial, t_max, 0.01, sample_every)
    assert len(tr.states) == len(expected) == len(tr.times)
    for t, state, vec in zip(tr.times, tr.states, expected):
        amplitudes = _restrict(h, state)[3]
        off = np.abs(amplitudes - vec).max()
        assert off <= tol, (t, off)
        exact = _restrict(h, evolve_exact(h, initial, t))[3]
        assert 1e4 * np.linalg.norm(amplitudes - vec) <= np.linalg.norm(amplitudes - exact), t
    assert abs(tr.norm_drift - drift) <= tol
    return len(tr.states)


@pytest.mark.parametrize("L", [8, 12])
@pytest.mark.parametrize("kind", ["even-fock", "odd-fock", "complex", "two-sectors"])
def test_rk4_matches_the_stepped_complex_rk4(L, kind):
    # 253 whole steps and a shortened last one of 0.007
    assert _check_against_stepped_rk4(L, kind, 2.537, 40, 1e-13) == 8


@pytest.mark.parametrize(
    "L, kind, t_max, sample_every, tol",
    [(8, "two-sectors", 2.537, 1, 1e-13), (14, "complex", 100.0, 10_000, 1e-11)],
    ids=["every-step", "one-10000-step-interval"],
)
def test_rk4_matches_the_stepped_complex_rk4_on_extreme_grids(L, kind, t_max, sample_every, tol):
    _check_against_stepped_rk4(L, kind, t_max, sample_every, tol)


def test_rk4_applies_a_long_interval_in_pieces(monkeypatch):
    # 100-step intervals in pieces of 30, the last one ending in the short step
    monkeypatch.setattr(qgol.dynamics, "_MAX_PIECE", 30)
    _check_against_stepped_rk4(8, "two-sectors", 2.537, 100, 1e-13)


def _expansion_spans(monkeypatch):
    """The (whole steps, shortened step) pairs `evolve_rk4` expands, each once."""
    spans = []
    expansion = qgol.dynamics._rk4_chebyshev

    def recording(steps, remainder, dt, bound):
        spans.append((steps, remainder))
        return expansion(steps, remainder, dt, bound)

    monkeypatch.setattr(qgol.dynamics, "_rk4_chebyshev", recording)
    return spans


@pytest.mark.parametrize("kind", ["even-fock", "odd-fock", "complex", "two-sectors"])
@pytest.mark.parametrize(
    "cap, sample_every, expanded",
    [
        (1, 10, {(10, False), (3, True)}),  # one snapshot a window; the short step's alone
        (2, 10, {(10, False), (20, False), (13, True)}),  # a window of two ends in the short step
        (3, 10, {(10, False), (20, False), (30, False), (13, True)}),  # windows of exactly 30 steps
        (16, 12, {(12, False), (24, False), (13, True)}),  # 36 steps would cross 30: two a window
        # 40-step intervals in pieces of 30; the window after the last piece
        # holds step 240 and the short step 254
        (16, 40, {(30, False), (10, False), (23, True)}),
    ],
    ids=["one", "two", "three", "cut-at-30", "pieces"],
)
def test_rk4_windows_match_the_stepped_complex_rk4(monkeypatch, kind, cap, sample_every, expanded):
    # 253 whole steps and a shortened last one; a window shares one run of the
    # recurrence between up to `cap` snapshots within 30 steps of its start,
    # each expanded from that start, and adds its terms in three at a time
    monkeypatch.setattr(qgol.dynamics, "_MAX_PIECE", 30)
    monkeypatch.setattr(qgol.dynamics, "_MAX_WINDOW", cap)
    monkeypatch.setattr(qgol.dynamics, "_CHUNK", 3)
    spans = _expansion_spans(monkeypatch)
    _check_against_stepped_rk4(8, kind, 2.537, sample_every, 1e-13)
    assert {(steps, remainder > 0) for steps, remainder in spans} == expanded


def test_rk4_refuses_a_step_unstable_for_the_bound():
    # at dt*a = 3.2 > 2 sqrt(2) a 25-step expansion's coefficients sum to
    # about 1e9, and its rounding put a snapshot 4e-6 off stepped RK4 while
    # both kept this low-energy eigenvector within the norm check
    L, low, high = 12, 0b10, 0b11
    h = build_hamiltonian(L)
    block = frozen_sector(h, low, high)[1]
    a = _spectral_bound(block)
    energies, vectors = np.linalg.eigh(block.toarray())
    initial = sector_state(L, low, high, vectors[:, np.argmin(np.abs(energies - 0.05 * a))] + 0j)
    dt = 3.2 / a
    assert _complex_rk4(h, initial, 100 * dt, dt, 25)[1] < 1e-4
    with pytest.warns(UserWarning, match="RK4"), pytest.raises(IntegrationError, match="unstable"):
        evolve_rk4(h, initial, 100 * dt, dt=dt, sample_every=25)


def _counted_products(monkeypatch):
    """Count the sparse products `evolve_rk4` takes."""
    count = [0]
    kernel = qgol.dynamics.csr_matvec

    def counting(*args):
        count[0] += 1
        return kernel(*args)

    monkeypatch.setattr(qgol.dynamics, "csr_matvec", counting)
    return count


@pytest.mark.parametrize("kind", ["odd-fock", "complex"])
@pytest.mark.parametrize("t_max, sample_every",
                         [(2.537, 1), (2.537, 7), (2.5, 40), (2.537, 1 << 30)])
def test_rk4_takes_at_most_four_products_per_step(monkeypatch, kind, t_max, sample_every):
    h = build_hamiltonian(10)
    initial = _start(kind, 10)
    live = 1 if kind == "odd-fock" else 2
    count = _counted_products(monkeypatch)
    counts = []
    evolve_rk4(h, initial, t_max, sample_every=sample_every,
               observer=lambda t, s: counts.append(count[0]))
    steps = snapshot_grid(t_max, 0.01, sample_every)[2]
    assert counts[0] == 0
    assert np.all(np.diff(counts) <= 4 * np.diff(steps) * live), (np.diff(counts), np.diff(steps))


def test_rk4_window_ends_before_a_snapshot_that_would_cost_more_than_stepping(monkeypatch):
    # on the two-level block (a = 1) some long spans keep far more terms than
    # their length needs, so the window that would take one of them stops short
    h = build_hamiltonian(5)
    count = _counted_products(monkeypatch)
    counts = []
    evolve_rk4(h, make_fock_state(SpinConfig.from_string("01010")), 4.0, sample_every=25,
               observer=lambda t, s: counts.append(count[0]))
    assert 0 < max(np.diff(counts)) <= 4 * 25, np.diff(counts)


def test_rk4_takes_at_most_30_products_per_25_steps_at_l16(monkeypatch):
    h = build_hamiltonian(16)
    initial = make_fock_state(SpinConfig.from_string("1001101011100101"))
    count = _counted_products(monkeypatch)
    counts = []
    evolve_rk4(h, initial, 1.0, sample_every=25, keep_states=False,
               observer=lambda t, s: counts.append(count[0]))
    assert len(counts) == 5
    assert 0 < max(np.diff(counts)) <= 30, np.diff(counts)


@pytest.mark.parametrize(
    "L, bits, t_max, most, per_interval",
    [(16, "1001101011100101", 30.0, 1000, 2280), (20, "00001110001111001000", 10.0, 400, 880)],
    ids=["l16", "l20-benchmark-large"],
)
def test_rk4_windows_share_the_expansion_tail(monkeypatch, L, bits, t_max, most, per_interval):
    # one expansion per 25-step interval took `per_interval` products, about
    # 16 of them its tail; a window of 16 snapshots pays the tail once
    h = build_hamiltonian(L)
    count = _counted_products(monkeypatch)
    tr = evolve_rk4(h, make_fock_state(SpinConfig.from_string(bits)), t_max, sample_every=25,
                    keep_states=False)
    assert tr.products == count[0] <= most < per_interval


@pytest.mark.parametrize("kind, live", [("even-fock", 1), ("odd-fock", 1), ("complex", 2)])
@pytest.mark.parametrize("t_max, sample_every", [(2.537, 7), (2.537, 1 << 30), (0.0, 1)])
def test_trajectory_counts_its_sparse_products(monkeypatch, kind, live, t_max, sample_every):
    h = build_hamiltonian(10)
    count = _counted_products(monkeypatch)
    tr = evolve_rk4(h, _start(kind, 10), t_max, sample_every=sample_every)
    assert tr.products == count[0]
    assert tr.products % live == 0 and (tr.products > 0) == (t_max > 0)


def _expansion_bounds(monkeypatch):
    """The spectral bound `evolve_rk4` hands to its Chebyshev expansion."""
    bounds = []
    expansion = qgol.dynamics._rk4_chebyshev

    def recording(steps, remainder, dt, bound):
        bounds.append(bound)
        return expansion(steps, remainder, dt, bound)

    monkeypatch.setattr(qgol.dynamics, "_rk4_chebyshev", recording)
    return bounds


def test_rk4_spectral_bound_holds_for_every_block(monkeypatch):
    bounds = _expansion_bounds(monkeypatch)
    for L in range(5, 11):
        h = build_hamiltonian(L)
        for low in range(4):
            for high in range(4):
                _, block = frozen_sector(h, low, high)
                start = np.zeros(block.shape[0], dtype=complex)
                start[0] = 1.0
                evolve_rk4(h, sector_state(L, low, high, start), 0.01)
                radius = np.abs(np.linalg.eigvalsh(block.toarray())).max(initial=0.0)
                assert radius <= bounds[-1] + 1e-12, (L, low, high, radius, bounds[-1])
    assert 0 in bounds  # blocks with no couplings exist, and leave z as it is
    h = build_hamiltonian(10)
    initial = _start("two-sectors", 10)
    evolve_rk4(h, initial, 0.01)
    direct_sum = sp.block_diag(_restrict(h, initial)[1]).toarray()
    assert np.abs(np.linalg.eigvalsh(direct_sum)).max() <= bounds[-1] + 1e-12


@pytest.mark.parametrize("kind", ["odd-fock", "complex"])
def test_rk4_products_accept_int64_block_indices(monkeypatch, kind):
    # the steps call scipy's private CSR kernel directly; a block with int64
    # indices, as `_rule_csr` builds past 2**31 couplings, gives the same bits
    def int64_sector(h, low_bits, high_bits):
        indices, block = frozen_sector(h, low_bits, high_bits)
        block.indices, block.indptr = block.indices.astype(np.int64), block.indptr.astype(np.int64)
        return indices, block

    h = build_hamiltonian(12)
    initial = _start(kind, 12)
    expected = evolve_rk4(h, initial, 2.537, sample_every=40)
    monkeypatch.setattr(qgol.dynamics, "frozen_sector", int64_sector)
    blocks = _restrict(h, initial)[1]
    assert blocks[0].indices.dtype == blocks[0].indptr.dtype == np.int64
    tr = evolve_rk4(h, initial, 2.537, sample_every=40)
    assert len(tr.states) == len(expected.states) == 8
    for state, want in zip(tr.states, expected.states):
        assert state.block.tobytes() == want.block.tobytes()  # signed zeros too
    assert tr.norm_drift == expected.norm_drift


def test_rk4_lands_exactly_on_t_max(h5):
    tr = evolve_rk4(h5, make_fock_state(SpinConfig((0,) * 5)), np.pi / 4, sample_every=7)
    assert tr.times[-1] == np.pi / 4
    assert np.all(np.diff(tr.times) > 0) and tr.times[0] == 0.0


def test_rk4_aborts_on_blowup(h8):
    psi = make_fock_state(SpinConfig.from_string("01011010"))
    with pytest.warns(UserWarning, match="RK4"):
        with pytest.raises(IntegrationError):
            evolve_rk4(h8, psi, 40.0, dt=1.0, sample_every=5)


def test_blown_up_rk4_reported_zero_norm_drift(h11):
    # a NaN norm must fail the drift check, not come back as norm_drift = 0.0
    psi = make_fock_state(SpinConfig.from_string(BLINKER_11))
    with np.errstate(over="ignore", invalid="ignore"), pytest.warns(UserWarning, match="RK4"):
        with pytest.raises(IntegrationError):
            evolve_rk4(h11, psi, 2000.0, dt=1.0, sample_every=1 << 30)


def test_state_vector_accepted_nan_amplitudes():
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [1.0, np.nan]):
        with pytest.raises(ValueError):
            StateVector(bad)


def test_rk4_validation(h5):
    psi = make_fock_state(SpinConfig((0,) * 5))
    with pytest.raises(ValueError):
        evolve_rk4(h5, psi, 1.0, dt=0.0)
    with pytest.raises(ValueError):
        evolve_rk4(h5, psi, -1.0)
    with pytest.raises(ValueError):
        evolve_rk4(h5, make_fock_state(SpinConfig((0,) * 6)), 1.0)
    # a non-finite time or step, or a fractional or zero snapshot stride, is
    # refused before any step, not turned into NaN times or missing records
    inf, nan = float("inf"), float("nan")
    for t_max, dt, every in [(1.0, inf, 1), (inf, 0.01, 1), (nan, 0.01, 1), (1.0, nan, 1),
                             (1.0, 0.1, 2.5), (1.0, 0.1, 0)]:
        with pytest.raises(ValueError, match="^(dt|t_max|sample_every) must be"):
            snapshot_grid(t_max, dt, every)
        with pytest.raises(ValueError, match="^(dt|t_max|sample_every) must be"):
            evolve_rk4(h5, psi, t_max, dt=dt, sample_every=every, observer=lambda t, s: t)


def test_evolve_exact_examples(h5):
    psi = make_fock_state(SpinConfig.from_string("01010"))
    assert np.allclose(evolve_exact(h5, psi, 0.0).amplitudes, psi.amplitudes)
    dead = make_fock_state(SpinConfig((0,) * 5))
    assert np.allclose(evolve_exact(h5, dead, 7.3).amplitudes, dead.amplitudes)
    swapped = evolve_exact(h5, psi, np.pi / 2)
    target = make_fock_state(SpinConfig.from_string("01110"))
    assert abs(overlap(target, swapped)) == pytest.approx(1.0, abs=1e-12)


def test_evolve_exact_size_guard():
    from qgol import build_hamiltonian

    h = build_hamiltonian(15)
    with pytest.raises(ValueError):
        evolve_exact(h, make_fock_state(SpinConfig((0,) * 15)), 1.0)


def test_strobe_examples(h11, h8):
    dead = SpinConfig((0,) * 11)
    assert all(c == dead for c in stroboscopic_quantum(h11, dead, 4).steps)

    one = stroboscopic_quantum(h11, SpinConfig.from_string(BLINKER_11), 1)
    assert one.steps[1].to_string() == "00001110000"


def test_strobe_equals_classical_spot_checks(h8, rng):
    for _ in range(10):
        cfg = config_from_index(int(rng.integers(0, 1 << 8)), 8)
        strobe = stroboscopic_quantum(h8, cfg, 12)
        classical = classical_trajectory(cfg, 12)
        assert [c.bits for c in strobe.steps] == [c.bits for c in classical.steps]


def test_flip_rule_matches_dense_oracle():
    # the one rule the automaton, the strobe and the block builder share,
    # against the literal projector-product assembly
    for L in range(5, 9):
        dense = dense_hamiltonian(L)
        for index in range(1 << L):
            config = config_from_index(index, L)
            new = classical_f12_step(config).bits
            flipped = [i for i in range(1, L + 1) if new[i - 1] != config.bits[i - 1]]
            coupled = [i for i in range(3, L - 1) if dense[index ^ (1 << (i - 1)), index] == 1.0]
            assert flipped == coupled, (L, config.to_string())
