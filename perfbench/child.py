"""Traced stand-in for ``python -m gkraman``: usage ``child.py TRACE_FILE ARGS...``.

Records when the interpreter reached user code and how long ``import numpy``
and ``import gkraman`` took, runs ``gkraman.cli.main(ARGS)`` with the span
wrappers installed, and writes everything to TRACE_FILE.  Exit status,
stdout and an uncaught exception's traceback are those of ``python -m gkraman``.
"""

import time

T_START = time.time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_start = time.perf_counter()
import numpy  # noqa: E402,F401

_numpy_done = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import gkraman.cli  # noqa: E402

_gkraman_done = time.perf_counter()

from spans import Tracer  # noqa: E402

if __name__ == "__main__":
    trace_file, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        raise SystemExit(gkraman.cli.main(args))
    finally:
        tracer.uninstall()
        tracer.write(trace_file, {"t_start": T_START,
                                  "import_numpy_s": _numpy_done - _start,
                                  "import_gkraman_s": _gkraman_done - _numpy_done})
