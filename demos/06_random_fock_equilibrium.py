"""Equilibrium density of random Fock states: quantum vs classical.

Random bit strings with a fixed fraction of alive cells are evolved with
both engines; the late-time density is averaged over a stationary window
(t in [25, 30] for the quantum engine, step times in [83, 100] for the
classical one).  Classically the equilibrium density grows monotonically
with the initial density.  The quantum curve instead peaks near
rho(0) ~ 0.6 and drops again, exceeding the classical value at the peak.

A reduced version of the full study: L = 12 and 8 samples per point keep
this under a minute; bump SAMPLES/L for smoother curves.
"""

import tempfile

from qgol import RunConfig, run

L = 12
SAMPLES = 8

print(f"L={L}, {SAMPLES} random Fock states per initial density\n")
print("rho(0)   quantum rho_equi   classical rho_equi")
for k in range(1, 8):
    rho0 = k / 8
    with tempfile.TemporaryDirectory() as out:  # the per-sample tables are not needed here
        summary = run(
            RunConfig(
                kind="ensemble", L=L, rho0=rho0, samples=SAMPLES, seed=2026,
                t_max=30.0, dt=0.01, sample_every=50, window=(25.0, 30.0), out_dir=out,
            )
        )["summary"]
    q = summary["means"]["density_equi_quantum"]
    qe = summary["standard_errors"]["density_equi_quantum"]
    c = summary["means"]["density_equi_classical"]
    print(f" {rho0:.3f}   {q:.3f} +- {qe:.3f}      {c:.3f}")

print("\nthe quantum curve flattens and turns over at large initial density")
print("while the classical one keeps rising.  At this reduced size the")
print("comparison is noisy; the L = 16 run in the acceptance suite shows the")
print("quantum peak inside [0.5, 0.8] clearly exceeding the classical curve.")
