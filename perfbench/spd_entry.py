"""Run the spd CLI from the checkout's src/ tree, as one cold process.

Usage: python3 perfbench/spd_entry.py <spd arguments>, from the checkout root.
With PERFBENCH_TRACE=<file> set, the spdgeom functions are wrapped in spans
(see tracing.py) after the import, and the spans are written to <file> when
the process ends, together with the import time.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
trace_out = os.environ.get("PERFBENCH_TRACE")
start = time.perf_counter()
import spdgeom.cli  # noqa: E402

import_s = time.perf_counter() - start

if trace_out is None:
    sys.exit(spdgeom.cli.main())

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.op = int(os.environ.get("PERFBENCH_OP", "-1"))
tracing.install(tracer)
try:
    code = spdgeom.cli.main()
finally:
    tracer.dump(trace_out, {"import_s": import_s})
sys.exit(code)
