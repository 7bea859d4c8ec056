"""Traced child process of the cli_tables workload.

    python3 perfbench/cli_child.py STEM ARGS...

imports ``rbitmc.cli`` (timed as ``cli.import_s``), installs the span
wrappers, runs ``rbitmc.cli.main(ARGS)`` and writes the spans to
``STEM.json`` and ``STEM.npz``.  Its exit code is that of ``main``.
"""

import sys
import time


def main() -> int:
    stem, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import rbitmc.cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.count("cli.import_s", import_s)
    tracer.top_s += import_s
    try:
        return rbitmc.cli.main(argv)
    finally:
        tracer.dump(stem)


if __name__ == "__main__":
    sys.exit(main())
