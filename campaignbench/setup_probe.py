"""Set-up time of a workload, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR PRIME...

Imports numpy and fpselberg from SRC_DIR, builds one FpContext per prime,
and prints the seconds taken since this file started executing.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import fpselberg
    if not Path(fpselberg.__file__).resolve().is_relative_to(src):
        print(f"fpselberg imported from {fpselberg.__file__}, not {src}", file=sys.stderr)
        return 2
    for p in argv[1:]:
        fpselberg.FpContext(int(p))
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
