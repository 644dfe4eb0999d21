"""A deterministic work meter: the number of function calls a callable
makes, counted under ``sys.setprofile``.

Wall time on a shared host moves by tens of percent from run to run, so a
test cannot pin "at most about 5x the work for a 4x larger input" on it. A
count of calls is the same on every run. It is the idea behind empirical
complexity measurement (Goldsmith, Aiken & Wilkerson, "Measuring empirical
computational complexity", FSE 2007).

Its limits:

* work inside one C call counts as one call, so regex backtracking,
  ``sorted`` and other loops in C are invisible; pair a metered bound with
  a bound on the input's size where such a call can grow;
* the garbage collector is not seen.
"""

from __future__ import annotations

import sys
from typing import Callable


def work(fn: Callable[[], object]) -> int:
    """The Python (``call``) and C (``c_call``) calls made while ``fn()`` runs."""
    calls = 0

    def count(_frame, event: str, _arg) -> None:
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls
