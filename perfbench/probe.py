"""Set-up probe: import vesture, parse a workload's inputs, print the time.

    python3 perfbench/probe.py kerr M S | config PATH | none

Prints time.monotonic() once the first operation could start. The clock is
system-wide, so the caller subtracts its own reading taken before spawning
this process. Expects vesture on PYTHONPATH.
"""
import sys
import time

import vesture.cli as cli


def main(argv: list[str]) -> int:
    kind = argv[0]
    if kind == "kerr":
        cli.targets.kerr_config(float(argv[1]), float(argv[2]))
    elif kind == "config":
        with open(argv[1], "rb") as fh:
            cli.parse_config(fh.read())
    elif kind != "none":
        print(f"unknown probe kind {kind!r}", file=sys.stderr)
        return 2
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
