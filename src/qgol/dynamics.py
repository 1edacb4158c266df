"""Time evolution: Schrodinger integration, the classical automaton, and
the stroboscopic-projective construction that connects them.

The quantum engine is classic fixed-step RK4 on d/dt psi = -i H psi with
the paper-scale default step 0.01.  Norm drift is a measured error signal:
nothing is renormalized, and drift beyond `NORM_ABORT` aborts the run.
RK4, the exact oracle, H psi and <psi|H|psi> all work on the
frozen-boundary blocks a state has weight in (`_restrict`), never on the
full 2**L operator.

RK4 runs in real arithmetic.  Every coupling flips one spin, so H
anticommutes with the parity (-1)**popcount of a basis index (the chiral
structure behind the PXP model's spectral reflection).  With
z = psi on even-parity rows and z = i psi on odd-parity rows,
d/dt z = S z, where S is H with its even-parity rows negated.  S is real,
so Re z and Im z evolve apart as real vectors, and psi is decoded from z
only at snapshots: psi = Re z + i Im z on even rows and
Im z - i Re z on odd rows.

Between two snapshots RK4 applies one polynomial.  A step of the linear
equation d/dt z = S z is exactly z <- P(dt S) z, with P(x) = 1 + x + x**2/2
+ x**3/6 + x**4/24, so m steps are P(dt S)**m.  That polynomial is
evaluated as a Chebyshev expansion (Tal-Ezer and Kosloff, J. Chem. Phys.
81, 3967 (1984)) on the spectral interval [-a, a], where a is the block's
largest row count (Gershgorin: every entry is +-1).  Its coefficients
come from one FFT at Chebyshev nodes and are cut where the dropped terms
sum to 1e-15 of all, so m steps take about a m dt sparse products plus a
tail of 10 to 40 instead of 4m, and the result is the stepped RK4
trajectory up to rounding.

The Chebyshev vectors R_k z depend on the start state z only, not on how
far the map reaches, so one run of their recurrence serves a window of
snapshots: up to `_MAX_WINDOW` of them within `_MAX_PIECE` steps, each the
sum of the same vectors with its own coefficients.  The tail is paid once
per window rather than once per snapshot, and the sums are matrix
products of the coefficient rows with chunks of the vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from math import inf, pi
from numbers import Integral

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .hamiltonian import SparseHamiltonian, _fires, frozen_sector
from .lattice import SpinConfig, StateVector, _amplitudes, sector_state, split_index

#: Integration aborts when a sampled state drifts this far from unit norm.
NORM_ABORT = 1e-4

#: RK4's Chebyshev expansion keeps terms until the dropped ones sum to this
#: fraction of all.
_CHEBYSHEV_TAIL = 1e-15

#: RK4's map between snapshots is refused when its Chebyshev coefficients sum
#: past this: the sum's rounding, about 2e-16 times that, would pass for RK4.
_MAX_GAIN = 1e4

#: Most RK4 steps one expansion covers; a longer interval is applied in pieces
#: this long, which bounds the coefficient FFT and the expansion's size.
_MAX_PIECE = 10_000

#: Most snapshots one run of the Chebyshev recurrence serves.
_MAX_WINDOW = 16

#: Most new terms of the recurrence held before they are added into a
#: window's snapshots.
_CHUNK = 16

#: Bytes a window's snapshot rows and its chunk of terms may hold; at large L
#: the window and the chunk shrink to fit.
_WINDOW_BYTES = 64 << 20

#: Columns of a window added per matrix product, so the sums stay in cache.
_SLAB = 2048

#: Largest lattice `evolve_exact` diagonalizes (a 1024-dimensional block).
EXACT_MAX_SITES = 14

#: Discrete step duration used when classical steps share a time axis with
#: the continuous evolution (the swap time of a single spin).
CLASSICAL_STEP = pi / 2


class IntegrationError(RuntimeError):
    """Raised when the fixed-step integrator leaves its validity regime."""


@dataclass
class Trajectory:
    """Sampled quantum evolution: times, optional states, observer records,
    the largest norm drift and the sparse products the integration took."""

    times: np.ndarray
    states: list[StateVector] | None
    records: list | None
    norm_drift: float
    products: int


@dataclass
class ClassicalTrajectory:
    """Sequence of configurations under the discrete rule, initial one included."""

    steps: list[SpinConfig]

    @property
    def times(self) -> np.ndarray:
        return CLASSICAL_STEP * np.arange(len(self.steps))


def _flip_sites(config: SpinConfig) -> list[int]:
    """The bulk sites (3 .. L-2) the rule flips in ``config``."""
    return [i for i in range(3, config.L - 1) if _fires(config.bits, i)]


def classical_f12_step(config: SpinConfig) -> SpinConfig:
    """One synchronous update: bulk site i swaps iff its neighbourhood holds
    2 or 3 alive cells, all flips computed from the pre-step configuration."""
    new = list(config.bits)
    for i in _flip_sites(config):
        new[i - 1] ^= 1
    return SpinConfig(tuple(new))


def classical_trajectory(config: SpinConfig, n_steps: int) -> ClassicalTrajectory:
    """Iterate the rule ``n_steps`` times, recording every configuration."""
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    steps = [config]
    for _ in range(n_steps):
        steps.append(classical_f12_step(steps[-1]))
    return ClassicalTrajectory(steps=steps)


def snapshot_grid(t_max: float, dt: float, sample_every: int):
    """The RK4 step grid and the snapshots taken on it.

    Returns ``(n_full, remainder, steps, times)``: ``n_full`` whole steps of
    ``dt``, then one shortened step of ``remainder`` landing exactly on
    ``t_max`` (0.0 when there is none); snapshots are taken after the step
    numbers ``steps`` (0, every ``sample_every`` steps, and the last step),
    at ``times``.
    """
    if not 0 < dt < inf:  # NaN fails too
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not 0 <= t_max < inf:
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max}")
    if not isinstance(sample_every, Integral) or sample_every < 1:
        raise ValueError(f"sample_every must be an integer >= 1, got {sample_every!r}")
    n_full = int(np.floor(t_max / dt + 1e-12))
    remainder = t_max - n_full * dt
    if remainder < 1e-12 * max(1.0, t_max):
        remainder = 0.0
    n_steps = n_full + (1 if remainder else 0)
    steps = np.arange(0, n_steps + 1, sample_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    times = steps * dt
    if remainder:
        times[-1] = t_max
    return n_full, remainder, steps, times


def _restrict(h: SparseHamiltonian, state):
    """The boundary sectors ``state`` has weight in, as (low_bits, high_bits)
    pairs, their `frozen_sector` blocks, the basis indices of those blocks
    one after another, and the amplitudes of ``state`` at those indices.

    ``state`` is a `StateVector` or a raw 2**L array (a zero array has no
    sectors); any other length raises ValueError.
    """
    sector = getattr(state, "sector", None)
    if sector is not None:
        shape, sectors = (state.dim,), [sector]
    else:
        amplitudes = _amplitudes(state)
        low, high, _ = split_index(h.L, np.flatnonzero(amplitudes))
        shape, codes = amplitudes.shape, np.unique(low | (high << 2))
        sectors = [(int(c) & 3, int(c) >> 2) for c in codes]
    if shape != (h.dim,):
        raise ValueError(f"dimension mismatch: state {shape}, H dim {h.dim}")
    blocks = [frozen_sector(h, low, high) for low, high in sectors]
    indices = np.concatenate([np.empty(0, dtype=np.int64), *(idx for idx, _ in blocks)])
    psi = state.block if sector is not None else amplitudes[indices]
    return sectors, [block for _, block in blocks], indices, psi


def apply_hamiltonian(h: SparseHamiltonian, state) -> np.ndarray:
    """H @ psi as a 2**L vector, one block at a time; ``state`` may be a raw
    unnormalized array, and the result is not normalized."""
    _, blocks, indices, psi = _restrict(h, state)
    n = 1 << (h.L - 4)  # every block is 2**(L-4) square
    out = np.zeros(h.dim, dtype=np.result_type(psi, float))
    for block, rows, part in zip(blocks, indices.reshape(-1, n), psi.reshape(-1, n)):
        out[rows] = block @ part
    return out


def energy_expectation(h: SparseHamiltonian, state) -> float:
    """<psi|H|psi>, summed over the blocks ``state`` has weight in (real,
    since H is real symmetric); no 2**L vector is made for a sector state."""
    _, blocks, _, psi = _restrict(h, state)
    parts = psi.reshape(-1, 1 << (h.L - 4))
    return float(sum(np.vdot(part, block @ part).real for block, part in zip(blocks, parts)))


def _state(h: SparseHamiltonian, sectors: list, indices: np.ndarray, vec, norm_tol: float):
    """The state with amplitudes ``vec`` on ``sectors``: a sector state when
    there is one, else a full vector."""
    if len(sectors) == 1:
        return sector_state(h.L, *sectors[0], vec, norm_tol=norm_tol)
    full = np.zeros(h.dim, dtype=complex)
    full[indices] = vec
    return StateVector(full, norm_tol=norm_tol)


def _rk4_polynomial(x):
    """RK4's stability polynomial: one step of d/dt z = S z is z <- P(dt S) z."""
    return 1.0 + x * (1.0 + x / 2.0 * (1.0 + x / 3.0 * (1.0 + x / 4.0)))


def _spectral_bound(block) -> int:
    """A bound on the spectral radius of a block with +-1 entries: its
    largest row count (Gershgorin), 0 for a block with no couplings."""
    return int(np.diff(block.indptr).max(initial=0))


def _rk4_chebyshev(steps: int, remainder: float, dt: float, bound: int) -> np.ndarray:
    """Coefficients d with P(dt S)**steps P(remainder S) = sum_k d[k] R_k(S / bound).

    R_0 = 1, R_1 = y and R_(k+1) = 2 y R_k + R_(k-1) are real, and
    T_k(i y) = i**k R_k(y).  The spectrum of S / bound is -i mu with mu in
    [-1, 1], so d[k] = Re(i**k c[k]) for the Chebyshev coefficients c of
    F(mu) = P(-i dt bound mu)**steps P(-i remainder bound mu); F(-mu) is the
    conjugate of F(mu), so i**k c[k] is real.  c comes from one FFT of F at
    n + 1 Chebyshev extrema, exact for n = deg F; fewer nodes are used while
    the kept terms fit in the lower half of them.  Terms are kept until the
    dropped ones sum to `_CHEBYSHEV_TAIL` of all, counting those below the
    rounding of F's values as zero.  The sum's rounding error is about eps
    sum |d|, so an interval whose |d| sum past `_MAX_GAIN` raises
    IntegrationError: only a step beyond RK4's stability limit for the
    bound makes F exceed 1 on [-1, 1].
    """
    degree = 4 * steps + (4 if remainder else 0)
    n = min(16, degree)
    while True:
        mu = np.cos(np.pi / n * np.arange(n + 1))
        f = _rk4_polynomial(-1j * dt * bound * mu) ** steps
        if remainder:
            f *= _rk4_polynomial(-1j * remainder * bound * mu)
        c = np.fft.fft(np.concatenate([f, f[-2:0:-1]]))[: n + 1] / n  # a DCT-I
        c[[0, n]] /= 2
        d = (c * np.array([1, 1j, -1, -1j])[np.arange(n + 1) % 4]).real
        mags = np.abs(d)
        gain = mags.sum()
        if not gain <= _MAX_GAIN:  # an overflow's NaN fails too
            raise IntegrationError(
                f"dt = {dt} is unstable on this block (dt*a = {dt * bound:.3g} > 2*sqrt(2) "
                f"for a = {bound}): RK4's map over {steps} steps would amplify rounding "
                f"{gain:.3g}-fold; reduce dt"
            )
        # F's values carry a phase of up to bound * T, so they are rounded to
        # about eps * bound * T; coefficients below that are noise, not terms
        noise = np.finfo(float).eps * (4.0 + bound * (steps * dt + remainder)) * np.abs(f).max()
        mags[mags <= noise] = 0.0
        tail = np.cumsum(mags[::-1])[::-1]  # tail[k] = sum of mags[k:]
        keep = int(np.count_nonzero(tail > _CHEBYSHEV_TAIL * tail[0]))
        if 2 * keep <= n or n == degree:
            return d[:keep]
        n = min(2 * n, degree)


def evolve_rk4(
    h: SparseHamiltonian,
    initial: StateVector,
    t_max: float,
    dt: float = 0.01,
    sample_every: int = 1,
    observer=None,
    keep_states: bool = True,
) -> Trajectory:
    """Fixed-step fourth-order integration of i d/dt psi = H psi.

    Snapshots are taken at t = 0, every ``sample_every`` steps, and at the
    final step (`snapshot_grid`).  Each snapshot is passed to
    ``observer(t, state)`` when given; observer returns are collected in
    ``Trajectory.records``.  With ``keep_states=False`` the snapshots
    themselves are discarded (memory bound: one snapshot).

    The integration runs only on the frozen-boundary sectors the initial
    state has weight in, which is exact: H is block diagonal over them, so
    the remaining amplitudes are zero and stay zero.  A Fock state lies in
    one 2**(L-4) dimensional block, and its snapshots are sector states
    (no 2**L vector is made); a superposition across boundary
    patterns evolves under the direct sum of its blocks, and its snapshots
    are full vectors.

    The arithmetic is real (module docstring): the block built for this
    run has its even-parity rows negated and is scaled by 2 / a in place,
    giving S' = 2 S / a, and the real and imaginary parts of
    z = psi (even rows), i psi (odd rows) that are nonzero each evolve on
    their own; a Fock state has one such part, any state at most two.

    RK4's maps to the next snapshots are applied as Chebyshev expansions
    (`_rk4_chebyshev`, cached per span) that share one run of the
    recurrence R_(k+1) = S' R_k + R_(k-1), each term one product with S'
    added into a copy of the term before last.  A window takes up to
    `_MAX_WINDOW` snapshots within `_MAX_PIECE` steps of its start (an
    interval longer than that is reached in pieces that long); the
    coefficient rows of its snapshots, times each chunk of up to `_CHUNK`
    new terms, are added into one row per snapshot.  The rows and the
    chunk fit in `_WINDOW_BYTES`, so at large L the window and the chunk
    are shorter.  Each snapshot is taken as soon as its own terms are in,
    and a window ends before a snapshot that would need more new terms than
    the 4 products per step stepping takes.  The sums differ from stepping
    by rounding (about 1e-14), not by RK4's error.  A block with no
    couplings (a = 0) leaves z as it is.  ``Trajectory.products`` counts
    the sparse products taken.

    Raises
    ------
    IntegrationError
        If a sampled norm drifts more than `NORM_ABORT` from 1 (the step is
        too large for the spectral radius of H), or if dt is beyond RK4's
        stability limit for the block's bound a (`_rk4_chebyshev`).
    """
    n_full, remainder, steps, times = snapshot_grid(t_max, dt, sample_every)
    sectors, blocks, indices, psi = _restrict(h, initial)
    # RK4 is stable for |E| dt < 2*sqrt(2) and max|E| <= max row degree <= L-4
    if dt * h.L > 0.5:
        warnings.warn(
            f"dt*L = {dt * h.L:.3g} > 0.5: RK4 may be inaccurate or unstable",
            stacklevel=2,
        )

    # the direct sum of one block is that block: a Fock state holds one copy
    signed = blocks[0] if len(blocks) == 1 else sp.block_diag(blocks, format="csr")
    even = (np.bitwise_count(indices) & 1) == 0
    # S' = 2 S / a, on the matrix built for this run: a copy or a diagonal
    # product would cost memory or reorder the entries of a row
    np.negative(signed.data, out=signed.data, where=np.repeat(even, np.diff(signed.indptr)))
    bound = _spectral_bound(signed)
    if bound:
        np.multiply(signed.data, 2.0 / bound, out=signed.data)
    # Re z and Im z; 0.0 - x keeps every zero +0, as the complex arithmetic does
    parts = [np.where(even, psi.real, 0.0 - psi.imag), np.where(even, psi.imag, psi.real)]
    live = [j for j, part in enumerate(parts) if part.any()]

    states = [] if keep_states else None
    records = [] if observer is not None else None
    drift = 0.0

    def take_snapshot(t: float):
        nonlocal drift
        re_z, im_z = parts
        vec = np.empty(even.size, dtype=complex)
        vec.real = np.where(even, re_z, im_z)
        vec.imag = np.where(even, im_z, 0.0 - re_z)
        error = abs(float(np.linalg.norm(vec)) - 1.0)
        if not error <= NORM_ABORT:  # a NaN or infinite norm fails too
            raise IntegrationError(
                f"norm drift {error:.3e} at t = {t:.4g} exceeds "
                f"{NORM_ABORT:.0e}; reduce dt (currently {dt})"
            )
        drift = max(drift, error)
        if keep_states or observer is not None:
            snapshot = _state(h, sectors, indices, vec, 2 * NORM_ABORT)
            if keep_states:
                states.append(snapshot)
            if observer is not None:
                records.append(observer(t, snapshot))

    take_snapshot(0.0)  # a zero or non-finite start fails here, so some part is live
    n, width = even.size, len(live)
    # per live part, one row per snapshot of a window and a chunk of terms
    # (two of them carried over from the chunk before), in `_WINDOW_BYTES`
    vectors = _WINDOW_BYTES // (8 * n * width)
    cap = min(_MAX_WINDOW, max(1, min(vectors // 2, vectors - 3)))
    rows = np.empty((width, cap, n))
    terms = np.empty((width, max(3, min(_CHUNK + 2, vectors - cap)), n))
    chunk = terms.shape[1]
    added = np.empty((cap, min(_SLAB, n)))
    # product(x, y) adds S' x into y: `signed @ x` calls this kernel on a
    # fresh zeroed array
    product = partial(csr_matvec, n, n, signed.indptr, signed.indices, signed.data)
    expansions = {}
    products = 0

    def expansion(start: int, stop: int) -> np.ndarray:
        """`_rk4_chebyshev` of RK4's map from step ``start`` to step ``stop``, cached."""
        short = stop > n_full  # the span ends in the shortened step
        key = (stop - start - short, remainder if short else 0.0)
        if key not in expansions:
            expansions[key] = _rk4_chebyshev(*key, dt, bound)
        return expansions[key]

    def fold(first: int, stop: int, low: int, high: int):
        """Add terms ``low`` to ``high - 1`` into the window's rows ``first``
        to ``stop - 1`` (set those rows with the window's first terms), one
        slab of columns at a time."""
        block = coefficients[first:stop, low:high]
        for p in range(width):
            for c in range(0, n, added.shape[1]):
                out = rows[p, first:stop, c : c + added.shape[1]]
                sums = terms[p, low - base : high - base, c : c + added.shape[1]]
                if low:
                    np.add(out, np.matmul(block, sums, out=added[: out.shape[0], : out.shape[1]]),
                           out=out)
                else:
                    np.matmul(block, sums, out=out)

    # the step after which each map ends, and its snapshot time (None at the
    # end of a `_MAX_PIECE` long piece of a longer interval)
    targets = []
    for start, stop, t in zip(steps[:-1].tolist(), steps[1:].tolist(), times[1:].tolist()):
        targets += [(piece, None) for piece in range(start + _MAX_PIECE, stop, _MAX_PIECE)]
        targets.append((stop, t))

    position = taken = 0
    while taken < len(targets):
        # a window: up to `cap` targets within `_MAX_PIECE` steps of the
        # current one, each needing no more new terms than stepping's products
        window, size, previous = [], 0, position
        for stop, t in targets[taken : taken + cap]:
            if stop - position > _MAX_PIECE:
                break
            d = expansion(position, stop)
            if window and d.size - size > 4 * (stop - previous):
                break
            window.append((d, t))
            size, previous = max(size, d.size), stop
        taken, position = taken + len(window), previous
        coefficients = np.zeros((len(window), size))
        for row, (d, _) in enumerate(window):
            coefficients[row, : d.size] = d

        # terms[p, r] is R_(base + r) applied to part p; the rows of the
        # snapshots not yet taken hold the terms before `folded`
        for p, j in enumerate(live):
            terms[p, 0] = parts[j]
        base = folded = 0
        k = needed = 1
        for row, (d, t) in enumerate(window):
            needed = max(needed, d.size)
            while k < needed:
                if k - base == chunk:  # add the full chunk in, keeping its last two terms
                    fold(row, len(window), folded, k)
                    terms[:, :2] = terms[:, -2:]
                    base, folded = k - 2, k
                r = k - base
                for p in range(width):
                    if k == 1:  # R_1 z = S' z / 2
                        terms[p, 1] = 0.0
                        product(terms[p, 0], terms[p, 1])
                        terms[p, 1] *= 0.5
                    else:  # R_k z = S' R_(k-1) z + R_(k-2) z
                        terms[p, r] = terms[p, r - 2]
                        product(terms[p, r - 1], terms[p, r])
                k += 1
            fold(row, row + 1, folded, k)  # this row's own last terms
            for p, j in enumerate(live):
                parts[j] = rows[p, row]
            if t is not None:
                take_snapshot(t)
        products += width * (k - 1)  # one per term after R_0, per part

    return Trajectory(
        times=times,
        states=states,
        records=records,
        norm_drift=drift,
        products=products,
    )


def evolve_exact(h: SparseHamiltonian, initial: StateVector, t: float) -> StateVector:
    """exp(-i H t) |psi> by dense diagonalization; the integrator oracle.

    Each frozen-boundary block the state touches is diagonalized on its
    own.  Limited to L <= 14, where a block is 1024-dimensional.
    """
    if h.L > EXACT_MAX_SITES:
        raise ValueError(f"dense propagation limited to L <= {EXACT_MAX_SITES}")
    sectors, blocks, indices, psi = _restrict(h, initial)
    amps = []
    for block, part in zip(blocks, psi.reshape(len(blocks), -1)):  # equal-sized blocks
        w, basis = np.linalg.eigh(block.toarray())
        amps.append(basis @ (np.exp(-1j * w * t) * (basis.T @ part)))
    return _state(h, sectors, indices, np.concatenate(amps), 1e-8)


#: exp(-i pi/2 X): one site rotated for the swap time pi/2.
_QUARTER_TURN = np.cos(pi / 2) * np.eye(2) - 1j * np.sin(pi / 2) * np.array([[0, 1], [1, 0]])


def stroboscopic_quantum(
    h: SparseHamiltonian, config: SpinConfig, n_steps: int
) -> ClassicalTrajectory:
    """Projective stroboscopic dynamics measured every pi/2.

    Each step measures the neighbour-count projectors on the current Fock
    configuration (deterministic: Fock states are projector eigenstates),
    rotates every flagged site for time pi/2 and collapses onto the
    resulting Fock state.  That state is a product, held as L single-site
    spinors; the landing check reads the product of the winning moduli,
    the modulus of the full-vector amplitude.  On Fock inputs the sequence
    coincides with the classical rule.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if config.L != h.L:
        raise ValueError(f"configuration L = {config.L} does not match H (L = {h.L})")
    steps = [config]
    for _ in range(n_steps):
        spinors = np.eye(2, dtype=complex)[list(steps[-1].bits)]
        flagged = np.array(_flip_sites(steps[-1]), dtype=int) - 1
        spinors[flagged] = spinors[flagged] @ _QUARTER_TURN.T
        winners = np.argmax(np.abs(spinors), axis=1)
        weight = np.prod(np.abs(spinors[np.arange(h.L), winners]))
        if abs(weight - 1.0) > 1e-9:
            raise RuntimeError("stroboscopic step did not land on a Fock state")
        steps.append(SpinConfig(tuple(winners.tolist())))
    return ClassicalTrajectory(steps=steps)
