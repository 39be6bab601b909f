"""One workload in one fresh process: set-up, then the timed or traced passes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only

Prints one JSON object.  ``setup_s`` is the time from before ``import fatrec``
to the end of the workload's preparation, at the reference speed.  Timed mode runs whole passes until the
jobs have taken ``--seconds`` and number at least ``MIN_JOBS``; traced mode
runs pass 0 untraced, then the same pass under the tracer, and writes the
spans under ``.perfbench/traces``; the ``trace.*`` and ``cli.process_s`` times
are at the reference speed, the per-layer self times are wall times.  The process pins itself, and so its CLI
children, to one CPU, so that the speed probes around a job (see harness.py)
measure the CPU the job ran on.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
from pathlib import Path

from harness import run_job, slowdown, summarize

ROOT = Path(__file__).resolve().parent.parent
# A timed run also lasts until this many jobs, so that job_p90_ms has at
# least ten samples beyond it.
MIN_JOBS = 110
# A pass never starts once this long past the requested run length.
OVERRUN_S = 60


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of the largest child it waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB


def timed(wl, seed, seconds) -> dict:
    outcomes, busy, index = [], 0.0, 0
    deadline = time.monotonic() + seconds + OVERRUN_S
    while ((busy < seconds or len(outcomes) < MIN_JOBS)
           and time.monotonic() < deadline):
        for job in wl.deck(seed, index):
            outcome = run_job(job)
            outcomes.append(outcome)
            busy += outcome.seconds
        wl.end_pass()
        index += 1
    out = summarize(outcomes)
    out["passes"] = index
    out["peak_rss_mb"] = peak_rss_mb(wl.processes)
    return out


def traced(wl, seed) -> dict:
    import tracer

    plain = [run_job(job) for job in wl.deck(seed, 0)]
    wl.end_pass()
    tr = tracer.Tracer()
    tracer.install(tr)
    jobs = wl.deck(seed, 0, traced=True)
    traced_out = [run_job(job, wrap=functools.partial(tr.job, i))
                  for i, job in enumerate(jobs)]
    wl.end_pass(tr)

    untraced_s = sum(o.ref_seconds for o in plain)
    traced_s = sum(o.ref_seconds for o in traced_out)
    metrics = tr.layer_metrics()
    metrics.update({
        "cli.processes": len(plain) if wl.processes else 0,
        "cli.process_s": untraced_s if wl.processes else 0.0,
        "trace.jobs": len(jobs),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead": traced_s / untraced_s - 1 if untraced_s else 0.0,
    })
    spans_dir = ROOT / ".perfbench" / "traces"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{wl.name}-seed{seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "job", "name", "start", "end", "self_s"],
                   "jobs": [job.name for job in jobs], "spans": tr.spans}, fh)
    out = summarize(plain + traced_out)
    out["metrics"] = metrics
    out["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    before = slowdown()
    t0 = time.perf_counter()
    import workloads  # imports fatrec and every module the workloads drive
    wl = workloads.WORKLOADS[args.workload](ROOT)
    wl.setup()
    setup_raw_s = time.perf_counter() - t0
    setup_s = setup_raw_s / ((before + slowdown()) / 2)

    package = Path(workloads.fatrec.__file__).resolve().parent
    if package != ROOT / "src" / "fatrec":
        print(f"error: fatrec imported from {package}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    try:
        if args.trace:
            out = traced(wl, args.seed)
        else:
            out = timed(wl, args.seed, args.seconds)
    finally:
        wl.close()
    out.update(setup_s=setup_s, setup_raw_s=setup_raw_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
