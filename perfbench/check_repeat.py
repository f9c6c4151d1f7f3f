"""Self-test of the benchmark: runs on one seed must repeat exactly.

    python3 perfbench/check_repeat.py

Run from the repository root.  For every workload it makes two traced runs
and one untraced run of the tiny deck on seed SEED, and fails unless
the verdict digests agree and every exact count (the .calls counts,
algos.inputs_checked, algos.subroutine_sims, qsim.outcomes_emitted,
polydeg.witness_bits_max, symfun.inputs_enumerated) is identical between
the two traced runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(".perfbench", f"{workload}-seed{SEED}-trace{trace}.json")) as fh:
        return json.load(fh)


def main() -> int:
    broken = 0
    for workload in WORKLOADS:
        first, second, untraced = run(workload, 1), run(workload, 1), run(workload, 0)
        digests = {first["digest"], second["digest"], untraced["digest"]}
        moved = {name: (value, second["exact_counts"][name])
                 for name, value in first["exact_counts"].items() if second["exact_counts"][name] != value}
        ok = len(digests) == 1 and not moved
        broken += not ok
        print(f"{workload:<14} {'ok' if ok else 'DIFFERS'}  digests {sorted(digests)}  "
              f"{len(first['exact_counts'])} counts" + (f", moved {moved}" if moved else ""))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
