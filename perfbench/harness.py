"""Closed-loop job runner: one client, one job at a time, every output checked.

A job is a callable plus a check of its output.  Only the call is timed; a job
that raises, or whose check fails or raises, counts as failed.  This module
does not import fatrec, so its accounting can be tested on its own.

On a shared cloud VM (measured on 2 vCPUs), other tenants of the host slowed
the CPU by up to about 1.7x, in phases lasting from seconds to minutes; that
moved the figures of repeated runs by 15-25%.  So a timed run brackets each
job with a fixed stdlib probe kernel and reports the job's time at the
reference speed, at which the probe takes ``REF_PROBE_S``.  Run-to-run drift
then cancels, while a change to fatrec, which the probe does not touch, shows
in full.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

REF_PROBE_S = 0.001
# A child process of a job is killed after this long.
CHILD_TIMEOUT_S = 120


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Outcome:
    name: str
    seconds: float  # wall time of the call
    slowdown: float  # probe time / REF_PROBE_S around the call
    ok: bool
    error: str | None = None

    @property
    def ref_seconds(self) -> float:
        """The call's time at the reference speed."""
        return self.seconds / self.slowdown


def probe() -> float:
    """Seconds taken by a fixed kernel of Fraction, tuple and dict work."""
    t0 = time.perf_counter()
    x = Fraction(1)
    for i in range(1, 80):
        x = x * Fraction(i + 1, i) + Fraction(1, i * i)
    counts: dict = {}
    for i in range(1200):
        key = (i % 97, i & 7)
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - t0


def slowdown() -> float:
    """How much slower than the reference speed the machine runs right now."""
    return min(probe(), probe()) / REF_PROBE_S


def run_job(job: Job, wrap: Callable | None = None) -> Outcome:
    """Run and check one job; ``wrap(name, fn)`` may run the call, e.g. traced.

    The machine's slowdown is probed just before and just after the call.
    """
    before = slowdown()
    error = detail = None
    t0 = time.perf_counter()
    try:
        out = job.run() if wrap is None else wrap(job.name, job.run)
    except Exception:
        error, detail = "raised", traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    factor = (before + slowdown()) / 2
    if error is None:
        try:
            if job.check(out) is not True:
                error, detail = "wrong output", ""
        except Exception:
            error, detail = "check raised", traceback.format_exc(limit=3)
    if error is not None:
        print(f"job failed ({error}): {job.name}\n{detail}", file=sys.stderr)
    return Outcome(job.name, seconds, factor, error is None, error)


def process_job(name: str, argv: list[str], cwd: str, env: dict,
                expect: Callable[[subprocess.CompletedProcess], bool]) -> Job:
    """A job that runs one child process.

    It fails on a non-zero exit and on any output to stderr, such as a
    warning that the cache could not be saved.
    """

    def run():
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)

    def check(proc):
        if proc.returncode != 0 or proc.stderr:
            print(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}",
                  file=sys.stderr)
            return False
        return expect(proc)

    return Job(name, run, check)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule (q in (0, 1])."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _latency(times: list[float], ok: int) -> dict:
    lat = sorted(times)
    busy = sum(lat)
    return {"jobs_per_s": ok / busy if busy else 0.0,
            "job_p50_ms": 1000 * nearest_rank(lat, 0.5) if lat else 0.0,
            "job_p90_ms": 1000 * nearest_rank(lat, 0.9) if lat else 0.0}


def summarize(outcomes: list[Outcome]) -> dict:
    """Throughput, latency percentiles and failure counts of a closed loop.

    With one client and no think time, the run's busy time is the sum of the
    job latencies; the benchmark's checks and probes run between jobs and are
    excluded.  The metrics use the times at the reference speed; ``raw``
    holds the same figures from the wall times.
    """
    n = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    out = {
        "attempted": n,
        "failed": failed,
        "busy_s": sum(o.seconds for o in outcomes),
        **_latency([o.ref_seconds for o in outcomes], n - failed),
        "raw": _latency([o.seconds for o in outcomes], n - failed),
        "slowdown_median": statistics.median(o.slowdown for o in outcomes) if n else 1.0,
        "p90_beyond": n - math.ceil(0.9 * n),
        "failures": [(o.name, o.error) for o in outcomes if not o.ok][:20],
    }
    return out
