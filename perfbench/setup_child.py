"""One set-up sample: a fresh interpreter imports shearlyap and makes the
workload's first call.  Prints one JSON line of time.perf_counter() stamps
(a system-wide monotonic clock, so the parent can subtract its spawn time).

Usage: python3 perfbench/setup_child.py WORKLOAD SEED WORKDIR
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import shearlyap  # noqa: E402,F401
import shearlyap.cli  # noqa: E402,F401

T_IMPORTED = time.perf_counter()

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    t_bench = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.first_call()
    t_first = time.perf_counter()
    print(json.dumps({"imported": T_IMPORTED, "bench_imported": t_bench,
                      "first_call_done": t_first}))


if __name__ == "__main__":
    main()
