"""One measured pass of a workload, in a fresh interpreter.

Usage (``src`` on ``PYTHONPATH``)::

    python3 e2ebench/worker.py <workload> <seed> <horizon_s> <replay_s>

``run.py`` starts several of these one after another and reports the median
of each metric over them.  A process's memory layout alone moves this
reproduction's speed by up to ±20% between otherwise identical processes
(repeats inside one process agree within a few percent), so a run measured
in a single process would spread mostly by layout.  Prints one JSON object:
this pass's end-to-end metric values with their sample counts, its output
digests and its behavioural counters.  ``setup_s`` is timed from the first
``import repro`` to a ready workload.
"""

import json
import sys
import time


def main() -> None:
    workload, seed, horizon_s, replay_s = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4])
    started = time.perf_counter()
    import repro  # noqa: F401  -- the set-up clock starts before the package loads
    import bench_workloads as wl

    import_s = time.perf_counter() - started
    if workload == "dataplane":
        result = wl.dataplane_pass(seed, horizon_s, replay_s, import_s)
    else:
        result = wl.scenario_pass(workload, seed, horizon_s, import_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
