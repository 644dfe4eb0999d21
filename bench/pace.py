"""Timing that holds steady while the host changes speed.

The host this benchmark runs on changes speed by up to 2x, for
milliseconds and for whole minutes, and process time slows with wall
time (the processor slows, not the scheduling), so no estimator over raw
times (best, median) holds steady from run to run, and a fixed reference
loop does not slow in step with a4c's own work. So every timed sample is
paired with the same work done by the control: a frozen copy of a4c in
``bench/control``, as it was when the benchmark was defined, run on the
same input right before or right after (the order alternates). The
control does exactly the kind of work a4c does, so a slowdown of the host
hits both alike, while a change to ``src/a4c`` moves only the code under
test. Pairs cover the in-process operations, the CLI subprocesses
(``PYTHONPATH`` pointing at the control) and set-up (inputs built and the
CLI started with the control).

A metric is the mean of the live/control time ratio, weighted by the
control's time (``relative``), times the control's typical figure for
that metric on the 2-vCPU machine this was tuned on (``CONTROL``):
seconds at control speed. At the commit that defined the benchmark the
ratio is 1 and the metric reads the control's typical figure; a change
that halves a stage's time halves its metric.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable

# The control's typical figures on that machine, per workload: for setup_s,
# its median set-up (s); for the in-process metrics, its median time per
# operation summed over the workload's inputs (s); for the CLI metrics, its
# median time per command, averaged over the commands (ms). Every run prints
# its own control's figures on standard error.
CONTROL = {
    "corpus_cli": {"setup_s": 0.374, "cli_check_ms": 257.0, "cli_cmd_ms": 250.0,
                   "check_s": 0.0117, "analyze_s": 0.0729, "docs_s": 0.0140, "fmt_s": 0.0118},
    "scale": {"setup_s": 0.557, "cli_check_ms": 538.0, "cli_cmd_ms": 538.0,
              "check_s": 0.286, "analyze_s": 0.345, "docs_s": 0.332, "fmt_s": 0.255},
    "loops": {"setup_s": 0.627, "cli_check_ms": 469.0, "cli_cmd_ms": 469.0,
              "check_s": 0.295, "analyze_s": 0.152, "docs_s": 0.464, "fmt_s": 0.0925},
    "pool": {"setup_s": 1.08, "cli_check_ms": 425.0, "cli_cmd_ms": 425.0,
             "check_s": 0.240, "analyze_s": 0.239, "docs_s": 0.216, "fmt_s": 0.179},
}


def timed(fn: Callable[[], object]):
    """(fn's result or the exception it raised, seconds). Each sample starts
    with an empty young generation, as in a fresh process, so that where the
    collector's passes fall does not depend on what ran before; call
    ``gc.freeze()`` after set-up to keep those collections short."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # the caller counts and reports it
        result = exc
    return result, time.perf_counter() - start


def paired(live: Callable[[], tuple], control: Callable[[], tuple], live_first: bool):
    """Run two samplers, each returning (result, seconds), back to back in
    the given order: (live result, live seconds, control seconds)."""
    if live_first:
        (result, live_s), (_ignored, control_s) = live(), control()
    else:
        (_ignored, control_s), (result, live_s) = control(), live()
    return result, live_s, control_s


def relative(samples: dict) -> float:
    """Mean over the keys of each key's median live/control ratio, weighted
    by the key's median control time; ``samples[key]`` lists (live s,
    control s) pairs."""
    num = den = 0.0
    for pairs in samples.values():
        weight = statistics.median(c for _l, c in pairs)
        num += weight * statistics.median(l / c for l, c in pairs)
        den += weight
    return num / den
