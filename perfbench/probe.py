"""One set-up probe: a fresh interpreter imports repnorm (through its CLI
module, as a command-line user would) and finishes one warm-up operation
of a workload.  Prints {"import_s": ..., "warmup_s": ...} as JSON.

    python3 perfbench/probe.py WORKLOAD
"""

import sys
import time

t_start = time.perf_counter()

import json                                              # noqa: E402
from pathlib import Path                                 # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repnorm.cli                                       # noqa: E402,F401

t_import = time.perf_counter()

from workloads import WORKLOADS                          # noqa: E402

WORKLOADS[sys.argv[1]](0).warmup()
t_done = time.perf_counter()
print(json.dumps({"import_s": t_import - t_start,
                  "warmup_s": t_done - t_import}))
