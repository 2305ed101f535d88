"""Time the program's set-up in a fresh interpreter: import ``nabext`` and
parse the given input files.  Prints the seconds taken.

    python3 setup_probe.py <src dir> algebra=<file> cocycle=<file> ...
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import nabext  # noqa: E402,F401
from nabext import io_json  # noqa: E402

PARSERS = {"algebra": io_json.algebra_from_json, "cocycle": io_json.cocycle_from_json}
for arg in sys.argv[2:]:
    kind, _, path = arg.partition("=")
    PARSERS[kind](io_json.loads(Path(path).read_text()))
print(time.perf_counter() - start)
