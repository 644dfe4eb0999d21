"""Two cost meters for a callable that do not depend on the host's speed:
``work``, the number of function calls it makes, counted under
``sys.setprofile``, and ``peak_bytes``, the most memory it holds at once,
traced by ``tracemalloc``; a third, ``stdout_bytes``, sizes what it prints.
``assert_linear`` bounds the growth of a cost under each meter it is given,
the one growth bound of the tests.

Wall time on a shared host moves by tens of percent from run to run, so a
test cannot pin "at most about 5x the work for a 4x larger input" on it. A
count of calls is the same on every run. It is the idea behind empirical
complexity measurement (Goldsmith, Aiken & Wilkerson, "Measuring empirical
computational complexity", FSE 2007), whose tool measures more than one
cost, because each one misses what another sees.

The limits of ``work``:

* work inside one C call counts as one call, so regex backtracking,
  ``sorted``, copying a long tuple and other loops in C are invisible; the
  allocation peak sees the ones that build large objects;
* the garbage collector is not seen.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from typing import Callable

BOUND = 5  # most cost allowed for a 4x step


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


def peak_bytes(fn: Callable[[], object]) -> int:
    """The most memory that ``fn()`` holds at once above the level at which
    it started, in bytes, as ``tracemalloc`` counts it.

    Its limits:

    * it sees only memory that goes through Python's allocators, so a C
      library's own buffers are missed, and time that allocates nothing,
      such as a search that walks without building, reads as flat;
    * memory that ``fn`` keeps counts as well as what it frees; the garbage
      collector is paused while ``fn`` runs, so the cyclic garbage it makes
      counts as held, and no garbage made before it is freed into its count;
    * dict and set layouts depend on ``PYTHONHASHSEED``, so the bytes can
      differ a little between runs: bound a ratio of peaks, not a number of
      bytes;
    * tracing slows ``fn`` several-fold.
    """
    collecting = gc.isenabled()
    tracing = tracemalloc.is_tracing()
    gc.disable()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
        if collecting:
            gc.enable()


def stdout_bytes(fn: Callable[[], str]) -> int:
    """The size of what ``fn`` returns, its printed output, in UTF-8 bytes."""
    return len(fn().encode())


def assert_linear(setups: list[Callable[[], Callable]], meters=(work, peak_bytes)) -> None:
    """Under each meter, the count of each call that ``setups`` set up, one
    fresh call per meter, is at most ``BOUND`` times the count before it."""
    for meter in meters:
        counts = [meter(setup()) for setup in setups]
        steps = [round(b / a, 2) for a, b in zip(counts, counts[1:])]
        assert max(steps) <= BOUND, (meter.__name__, counts, steps)
