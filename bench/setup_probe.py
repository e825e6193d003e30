"""Time one cold set-up of a workload in a fresh process.

    python3 bench/setup_probe.py structured_scale 1

Prints the seconds from this script's first line to the end of the
warm-up op, the span ``run.py`` times for its own set-up; ``run.py``
takes ``setup_s`` as the median of its own set-up and several probes.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402

import run  # noqa: E402

if __name__ == "__main__":
    _, seconds = run.cold_set_up(sys.argv[1], int(sys.argv[2]), _T0)
    print(seconds)
