#!/usr/bin/env python3
"""Cost of a fresh import of `kronrod` and `kronrod.corpus` in a running
interpreter.

These are the modules the benchmark's set-up imports (`fresh_import` in
`perfbench/run.py`), whose time `setup_s` includes: the package itself,
which loads every other module, and `kronrod.corpus`, which it does not.
Imports them once untimed, so numpy and the standard library are loaded,
then times `--n` fresh imports in each of two modes: each time every
`kronrod` module is dropped from `sys.modules` first, as the benchmark's
set-up does.

* bytecode off: nothing is read from or written to a bytecode cache, so
  every module is compiled from source, as under
  `PYTHONDONTWRITEBYTECODE=1` with no `__pycache__` to read;
* bytecode cached: the modules are compiled once into a cache, then read
  from it, the usual case of a command line run.

Both modes keep their bytecode under a temporary `sys.pycache_prefix`,
which is deleted afterwards, so nothing is written into the checkout.
Prints one line per mode: the median and the quartiles of the import
times in milliseconds.
"""

import argparse
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_import() -> float:
    """Seconds to import `kronrod` and `kronrod.corpus` with none of the
    package's modules loaded."""
    for name in [m for m in sys.modules if m.split(".")[0] == "kronrod"]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("kronrod")
    importlib.import_module("kronrod.corpus")
    return time.perf_counter() - start


def timed(n: int, cached: bool) -> list[float]:
    """`n` fresh import times under an empty bytecode cache, written to
    (and warmed by one untimed import) only when `cached`."""
    with tempfile.TemporaryDirectory() as prefix:
        sys.pycache_prefix, sys.dont_write_bytecode = prefix, not cached
        if cached:
            fresh_import()
        return [fresh_import() for _ in range(n)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=25, help="fresh imports timed per mode")
    p.add_argument("--src", type=Path, default=SRC, help="directory that holds the kronrod package")
    args = p.parse_args(argv)
    if args.n < 1:
        p.error("--n must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    sys.dont_write_bytecode = True
    fresh_import()  # numpy and the standard library, from their own caches
    for label, cached in (("bytecode off", False), ("bytecode cached", True)):
        ms = [1e3 * t for t in timed(args.n, cached)]
        q1, med, q3 = statistics.quantiles(ms, n=4, method="inclusive") if len(ms) > 1 else ms * 3
        quartiles = f"quartiles {q1:7.2f} .. {q3:7.2f} ms"
        print(f"{label:<16} median {med:7.2f} ms  {quartiles}  ({args.n} imports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
