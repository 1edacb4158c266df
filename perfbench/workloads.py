"""The three benchmark workloads and the inputs each draws from the seed.

`ensemble` passes the seed to `qgol ensemble --seed`.  The evolve workloads
draw a bitstring from the seed: half the bulk sites alive, the four frozen
boundary sites dead, so every seed lands in the same boundary sector and
the per-step cost does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from oracle import snapshot_steps


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # qgol subcommand
    L: int
    t_max: float
    sample_every: int
    measures: str = "populations"
    samples: int = 1  # ensemble members per process
    rho0: float = 0.5
    dt: float = 0.01
    setup_repeats: int = 5  # fresh processes timed for setup_s
    micro_steps: int = 1000  # RK4 steps timed for dynamics.rk4_step_us
    micro_snapshots: int = 100  # snapshots timed for dynamics.snapshot_us

    def bitstring(self, seed: int) -> str:
        """Initial state for the evolve workloads (and the RK4 probe)."""
        rng = np.random.default_rng([seed, self.L])
        bits = np.zeros(self.L, dtype=int)
        bulk = np.arange(2, self.L - 2)
        bits[rng.choice(bulk, size=bulk.size // 2, replace=False)] = 1
        return "".join(map(str, bits))

    def qgol_args(self, seed: int, out_dir: str) -> list[str]:
        args = [self.kind, "--length", str(self.L), "--tmax", repr(self.t_max),
                "--dt", repr(self.dt), "--sample-every", str(self.sample_every),
                "--workers", "1", "--out", out_dir]
        if self.kind == "ensemble":
            args += ["--density", repr(self.rho0), "--samples", str(self.samples),
                     "--seed", str(seed)]
        else:
            args += ["--initial", self.bitstring(seed), "--measures", self.measures]
        return args

    @property
    def snapshot_steps(self) -> np.ndarray:
        return snapshot_steps(self.t_max, self.dt, self.sample_every)

    @property
    def rk4_steps(self) -> int:
        """RK4 steps one process takes, summed over samples."""
        return self.samples * int(self.snapshot_steps[-1])

    @property
    def snapshots(self) -> int:
        """Snapshots one process observes, summed over samples."""
        return self.samples * int(self.snapshot_steps.size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ensemble", "ensemble", L=16, t_max=30.0, sample_every=25, samples=4),
        Workload("measures", "evolve", L=16, t_max=30.0, sample_every=125, measures="all"),
        Workload("large", "evolve", L=20, t_max=10.0, sample_every=25, setup_repeats=3,
                 micro_steps=100, micro_snapshots=20),
    )
}

#: Small versions of the workloads that run in seconds (for the tests).
SMOKE = {
    "ensemble": replace(WORKLOADS["ensemble"], L=8, samples=2, setup_repeats=2,
                        micro_steps=200, micro_snapshots=20),
    "measures": replace(WORKLOADS["measures"], L=8, t_max=5.0, setup_repeats=2,
                        micro_steps=200, micro_snapshots=20),
    "large": replace(WORKLOADS["large"], L=10, t_max=2.0, setup_repeats=2,
                     micro_steps=200, micro_snapshots=20),
}
