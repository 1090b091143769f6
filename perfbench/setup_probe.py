"""Time one set-up from a fresh interpreter: import, build, start.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  Prints the
seconds from the first line of this script to a started deployment of
the workload's first round: the package import, topology and routing,
host construction and, on UDP, socket binding.  The deployment is then
stopped and its sockets closed.
"""

import time

BEGAN = time.perf_counter()

import asyncio  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro  # noqa: E402,F401  (the import is part of set-up)

from workloads import (  # noqa: E402
    WORKLOADS,
    build_sim,
    build_udp,
    derive_seed,
)


async def open_udp(workload, seed: int) -> float:
    system = build_udp(workload, seed)
    await system.open()
    elapsed = time.perf_counter() - BEGAN
    system.close()
    return elapsed


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    seed = derive_seed(workload.name, int(sys.argv[2]), 0)
    if workload.backend == "sim":
        system = build_sim(workload, seed)
        elapsed = time.perf_counter() - BEGAN
        system.stop()
    else:
        elapsed = asyncio.run(open_udp(workload, seed))
    print(repr(elapsed))


if __name__ == "__main__":
    main()
