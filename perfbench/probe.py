"""Set-up probe: start, import lwf, build one workload's inputs, exit.

run.py times this script from process start to exit; that is the
workload's set-up time (interpreter, imports, parsed configs, models).
The yardstick of pace.py runs during the imports, and the last line of
output is the host speed it found and the wall time its samples took.
Usage: python3 perfbench/probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pace import Pace  # noqa: E402

with Pace() as pace:
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].prepare(False)
print(pace.speed, pace.wall_s)
