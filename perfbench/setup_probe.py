"""One fresh process doing the set-up every served workload pays first.

Run as ``python3 setup_probe.py SRC_DIR STORE_PATH``.  It imports the
program's entry points (numpy included), stamps the code version, opens a
fresh result store and forks a two-worker pool with one dispatch round
trip.  It then prints one JSON line with the time each step took and tears
everything down.  The parent times the process from launch to that line.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    marks = [("start", time.perf_counter())]
    src, store_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)

    import repro.dse  # noqa: F401  (the search entry point)
    from repro.experiments.parallel import SweepPool
    from repro.store import ResultStore, code_version
    from repro.store.service import StudyService  # noqa: F401  (the study entry point)

    marks.append(("import", time.perf_counter()))
    code_version()
    marks.append(("code_version", time.perf_counter()))
    store = ResultStore(store_path, fresh=True)
    marks.append(("store_open", time.perf_counter()))
    pool = SweepPool(2)
    pool.map(abs, [0, 1])
    marks.append(("pool_fork", time.perf_counter()))
    steps = {name: end - begin for (_, begin), (name, end) in zip(marks, marks[1:])}
    print(json.dumps(steps), flush=True)
    pool.close()
    store.close()


if __name__ == "__main__":
    main()
