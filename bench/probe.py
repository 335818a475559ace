"""Set-up probe: import odolab and build specs in a fresh interpreter.

Usage: python3 probe.py SRC SPEC...   Prints the seconds from the first line
of this script to the last spec built.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
from odolab.cli import load_spec  # noqa: E402

for spec in sys.argv[2:]:
    load_spec(spec)
print(time.perf_counter() - T0)
