"""Time one benchmark workload on two ``src/`` trees, in alternating fresh processes.

    python tools/ab_time.py PARENT_SRC CHANGE_SRC WORKLOAD N

Each of N pairs starts one fresh interpreter per tree, with that tree first on
``sys.path``; the two sides take turns going first.  Every process builds
``perfbench/spec.config_for(WORKLOAD, 108)`` (``spec.py`` is only imported),
times one ``experiments.run_experiment`` call on it with ``time.perf_counter``
and prints the seconds; as in the benchmark's own child, that call is the
first of its process.  The script prints each side's median and quartiles in
ms, and in how many pairs the change was the faster.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 108

CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spec
from chainhash import experiments
cfg = experiments.ExperimentConfig.from_dict(spec.config_for(sys.argv[3], int(sys.argv[4])))
start = time.perf_counter()
experiments.run_experiment(cfg)
print(time.perf_counter() - start)
"""


def timed(src: str, workload: str) -> float:
    """Seconds of one run_experiment call on ``workload`` in a fresh process importing ``src``."""
    argv = [sys.executable, "-c", CHILD, src, str(BENCH), workload, str(SEED)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    return float(out.split()[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent_src, change_src, workload, pairs = argv[0], argv[1], argv[2], int(argv[3])
    sys.path.insert(0, str(BENCH))
    import spec

    if workload not in spec.WORKLOADS:
        print(f"unknown workload {workload!r}; one of {sorted(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    if pairs < 2:
        print("N must be at least 2, for quartiles", file=sys.stderr)
        return 2
    parent, change = [], []
    for i in range(pairs):
        sides = [(parent_src, parent), (change_src, change)]
        for src, times in sides if i % 2 == 0 else reversed(sides):
            times.append(timed(src, workload))
    wins = sum(c < p for p, c in zip(parent, change))
    print(f"{workload}: {pairs} pairs")
    for side, times in (("parent", parent), ("change", change)):
        low, mid, high = (t * 1e3 for t in statistics.quantiles(times, n=4))
        print(f"{side} median {mid:.1f} ms (quartiles {low:.1f}, {high:.1f})")
    print(f"change faster in {wins} of {pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
