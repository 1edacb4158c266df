"""Write the committed reference outputs: the CSV files of each workload at
the default seed (0) and one held-out seed (1).

    python3 perfbench/make_references.py

Run from the repository root.  The files in references/ were written by
qgol as it stood when the benchmark was added; rerun this only to
re-baseline on purpose, since `run.py` holds every later version to them.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import REFERENCES, child_env
from workloads import WORKLOADS

SEEDS = (0, 1)


def main() -> int:
    root = Path.cwd()
    for wl in WORKLOADS.values():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=root) as tmp:
                cmd = [sys.executable, "-m", "qgol", *wl.qgol_args(seed, tmp)]
                subprocess.run(cmd, cwd=root, env=child_env(root), check=True,
                               stdout=subprocess.DEVNULL)
                target = REFERENCES / wl.name / f"seed{seed}"
                shutil.rmtree(target, ignore_errors=True)
                target.mkdir(parents=True)
                for path in sorted(Path(tmp).glob("*.csv")):
                    shutil.copy(path, target / path.name)
            print(f"wrote {target.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
