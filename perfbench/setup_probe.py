"""Time one set-up as a CLI user pays it, in a fresh interpreter: import the
eqdec modules a pipeline run needs, then build the workload's input window.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints the elapsed seconds. Interpreter start-up itself is not counted.
"""

import time

T0 = time.perf_counter()  # before any import this probe pays for

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.make_input(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
