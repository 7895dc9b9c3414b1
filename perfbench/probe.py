"""One set-up sample in a fresh interpreter.

Usage: python probe.py WORKLOAD SEED SCALE OUT_DIR

Prints perf_counter readings (shared with the parent, see tracing.py) after
`import phisoft`, after generating the inputs, and after loading them into
phisoft objects.  Set-up time is spawn -> import plus generate -> load: the
benchmark's own input generation is left out.
"""

import json
import sys
import time
from pathlib import Path

import phisoft  # noqa: F401  (timed: the program's import)

imported = time.perf_counter()

import workloads  # noqa: E402

name, seed, scale, out = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
ctx = workloads.Context(Path.cwd(), out, {}, seed, workloads.SCALES[scale], time.perf_counter() + 60)
workload = workloads.WORKLOADS[name](ctx)
generated = loaded = time.perf_counter()
if workload.loads_inputs:
    workload.generate()
    generated = time.perf_counter()
    workload.load()
    loaded = time.perf_counter()
print(json.dumps({"imported": imported, "generated": generated, "loaded": loaded}))
