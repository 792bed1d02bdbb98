"""Time one set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED ROOT SCRATCH

Set-up is importing gofpower (and numpy with it) and building the
workload's inputs from the seed, up to the first timed call.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    workload, seed, root, scratch = sys.argv[1:5]
    sys.path.insert(0, str(Path(root) / "src"))
    import workloads

    workloads.WORKLOADS[workload](int(seed), Path(scratch))
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
