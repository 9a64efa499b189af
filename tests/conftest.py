import inspect
import sys
from contextlib import contextmanager

import pytest


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
