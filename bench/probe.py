"""Set-up probe: one fresh interpreter, up to the first job being ready.

Run by ``run.py`` as ``python3 bench/probe.py <workload>``.  Prints one
JSON line: the monotonic clock when the job became ready (the parent
subtracts its spawn time), the import time of ``gtensor_tb`` and the
``load_material`` time.
"""
import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
import gtensor_tb.cli  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]](seed=0, work_dir=BENCH / ".work")
workload.setup()
ready = time.perf_counter()
print(json.dumps({"ready": ready, "import_s": t1 - t0,
                  "load_s": workload.load_s}))
