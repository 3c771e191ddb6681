"""One workload set-up in a fresh process; prints its seconds on the last line.

Usage (from the checkout root): ``python3 perfbench/setup_probe.py WORKLOAD SEED SIZE_JSON``.
The time covers importing the package and building the workload's set-up:
the validated cell spec, or the service with every subscription registered.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    start = perf_counter()
    sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]
    from workloads import make_workload

    name, seed, size = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
    make_workload(name, seed, size, Path.cwd()).setup()
    print(perf_counter() - start)
