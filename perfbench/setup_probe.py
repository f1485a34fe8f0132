"""Time, in a fresh interpreter, the import of gfstore plus construction of a workload's record.

    python3 perfbench/setup_probe.py WORKLOAD      (with gfstore on PYTHONPATH)

Prints the wall seconds taken; the caller scales them to reference-CPU time
with calibrations of its own around this process.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import records  # noqa: E402

records.new_record(sys.argv[1])
print(repr(time.perf_counter() - T0))
