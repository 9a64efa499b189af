import inspect
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

# The tests leave no bytecode in the checkout, and the programs they start
# inherit the setting: a cached tree imports faster than a fresh one, which
# skews any timing compared across checkouts.
sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")


def pytest_sessionfinish():
    """pytest compiles this file before the file can turn bytecode off."""
    cache = Path(__file__).parent / "__pycache__"
    for pyc in cache.glob("conftest.*.pyc"):
        pyc.unlink()
    if cache.is_dir() and not any(cache.iterdir()):
        cache.rmdir()


@pytest.fixture
def shallow_stack():
    """A context in which the stack holds only 100 more frames than at its
    entry, so a term nested a few hundred deep overflows it; the recursion
    limit is restored on exit."""

    @contextmanager
    def limited():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            yield
        finally:
            sys.setrecursionlimit(old)

    return limited()
