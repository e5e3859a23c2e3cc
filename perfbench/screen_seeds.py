"""Screen experiment seeds for a statistical workload's seed pool.

Runs the workload's full-size call at seeds 1..COUNT and prints the seeds
whose report passes, as the tuple workloads.py holds, then those that fail.
Reports do not depend on the thread count, so this runs on one thread.

Usage: python3 perfbench/screen_seeds.py <workload> <count>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the path above)


def main(name: str, count: int) -> None:
    workload = WORKLOADS[name]
    params = dict(workload.prepare(False), threads=1)
    passing, failing = [], []
    for seed in range(1, count + 1):
        report = workload.call(params, seed, None)
        (passing if report.passed else failing).append(seed)
    print(f"{name}: {len(passing)} of {count} pass")
    print(f"passing = {tuple(passing)}")
    print(f"failing = {tuple(failing)}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
