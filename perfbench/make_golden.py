"""Write perfbench/golden.json: the digests of every workload at the default seed.

    python3 perfbench/make_golden.py

Run it only on the commit the benchmark was defined against: the digests
pin that commit's outputs, and a later change must reproduce them.  Each
workload's outputs must pass the reference check before they are pinned.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import spec
import verify


def main() -> int:
    golden = {}
    for workload in spec.WORKLOADS:
        cfg = spec.config_for(workload, spec.DEFAULT_SEED)
        out = run.WORK / workload
        out.mkdir(parents=True, exist_ok=True)
        config_path = out / "config.json"
        config_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        argv = [sys.executable, str(run.CHILD), str(config_path), str(out), "0", "0"]
        proc = subprocess.run(argv, env=run.child_env(), capture_output=True, text=True, check=True)
        (call,) = json.loads(proc.stdout.strip().splitlines()[-1])["calls"]
        problems = verify.reference_problems(verify.Reference(cfg), call["json"], call["csv"])
        if call["exit"] != 0 or problems:
            print(f"{workload}: exit {call['exit']}, {problems}", file=sys.stderr)
            return 1
        golden[workload] = {
            "seed": spec.DEFAULT_SEED,
            "trials": cfg["trials"],
            **verify.digests(call["json"], call["csv"]),
        }
    verify.GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
