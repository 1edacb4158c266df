"""Span tracing of qgol's layers from outside the package.

`Tracer` swaps module attributes for wrappers while it is entered and puts
the originals back on exit.  Each wrapper records a span (name, start, end,
parent); `count_only` wrappers just count calls into the innermost open
span.  Counts roll up into the parent span when a span closes, so each
span carries the counts of its whole subtree.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (module, attribute, span name): the public functions qgol.cli, qgol.runner
# and qgol.dynamics call into, grouped by the layer that implements them.
SPANS = [
    ("qgol.cli", "run", "runner.run"),
    ("qgol.runner", "build_hamiltonian", "hamiltonian.build"),
    ("qgol.dynamics", "frozen_sector", "hamiltonian.sector"),
    ("qgol.runner", "evolve_rk4", "dynamics.evolve_rk4"),
    ("qgol.runner", "classical_trajectory", "dynamics.classical"),
    ("qgol.dynamics", "StateVector", "lattice.statevector"),
    ("qgol.runner", "local_population", "observables.population"),
    ("qgol.runner", "discretize", "observables.discrete"),
    ("qgol.runner", "density", "observables.discrete"),
    ("qgol.runner", "diversity", "observables.discrete"),
    ("qgol.runner", "improved_diversity", "observables.discrete"),
    ("qgol.runner", "alive_cluster_function", "observables.discrete"),
    ("qgol.runner", "dead_cluster_function", "observables.discrete"),
    ("qgol.runner", "single_site_entropies", "quantum_info.entropies"),
    ("qgol.runner", "mutual_information_matrix", "quantum_info.mi"),
    ("qgol.runner", "average_concurrence", "quantum_info.concurrence"),
    ("qgol.runner", "bond_entropy", "quantum_info.bonds"),
]

COUNTS = [
    ("qgol.quantum_info", "reduced_density_matrix", "rdm_calls"),
]

#: Span name given to the observer callback the runner hands to evolve_rk4.
OBSERVE = "runner.observe"


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    ``spans`` holds dicts with keys name, start, end, parent (index into
    ``spans`` or None), counts (Counter over the subtree) and info (what
    the ``inspect[name](args, kwargs, result)`` hook took from the call).
    """

    def __init__(self, modules: dict, inspect: dict | None = None):
        self.modules = modules
        self.inspect = inspect or {}
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.originals: list[tuple] = []  # (module, attribute, original)

    def wrap(self, name: str, fn):
        inspect = self.inspect.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "dynamics.evolve_rk4" and kwargs.get("observer") is not None:
                kwargs["observer"] = self.wrap(OBSERVE, kwargs["observer"])
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "parent": parent, "counts": Counter(), "info": None}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent]["counts"].update(span["counts"])
            if inspect is not None:
                span["info"] = inspect(args, kwargs, result)
            return result

        return traced

    def count_only(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.spans[self._stack[-1]]["counts"][name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        for targets, make in ((SPANS, self.wrap), (COUNTS, self.count_only)):
            for module, attr, name in targets:
                mod = self.modules[module]
                original = getattr(mod, attr)
                self.originals.append((mod, attr, original))
                setattr(mod, attr, make(name, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self.originals):
            setattr(mod, attr, original)
        return False

    def restored(self) -> bool:
        """True when every swapped attribute holds its original again."""
        return all(getattr(mod, attr) is original for mod, attr, original in self.originals)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by children."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals = defaultdict(float)
    for k, span in enumerate(spans):
        totals[span["name"]] += span["end"] - span["start"] - child_time[k]
    return dict(totals)


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]
