"""fatrec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fatrec is imported from its ``src``.  With
``--trace 0`` the run measures the end-to-end metrics of ``BENCHMARK.json``:
several fresh processes time the set-up, then one fresh worker process runs
the workload as a closed loop (one client, one job at a time).  Times are
reported at a reference machine speed (see harness.py), next to the wall
times.  With
``--trace 1`` a worker runs one pass untraced and the same pass traced and
reports the per-layer metrics.  The last line of stdout is the JSON result;
a copy with the run record goes to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OVERRUN_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9  # set-ups timed per run: the worker's own and SETUP_SAMPLES-1 probes
# A run is killed after --seconds, the worker's OVERRUN_S and this allowance
# for the set-up processes and the last pass.
SETUP_ALLOWANCE_S = 90


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FATREC_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {args} timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + args.seconds + OVERRUN_S + SETUP_ALLOWANCE_S

    if not (ROOT / "src" / "fatrec" / "__init__.py").is_file():
        print(f"error: no fatrec package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            res = run_worker([*common, "--trace", "1"], deadline)
            wanted, values = spec["per_layer"], res["metrics"]
        else:
            setups = [run_worker([*common, "--setup-only"], deadline)
                      for _ in range(SETUP_SAMPLES - 1)]
            res = run_worker([*common, "--seconds", str(args.seconds)], deadline)
            setups.append(res)
            res["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
            values = {k: res[k] for k in ("jobs_per_s", "job_p50_ms",
                                          "job_p90_ms", "peak_rss_mb")}
            values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            values["ok_frac"] = (res["attempted"] - res["failed"]) / res["attempted"]
            wanted = spec["end_to_end"]
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload, "why": whys[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "commit": commit(),
        "nproc": os.cpu_count(), "loop": "closed, 1 client, 1 job at a time",
        "metrics": metrics,
        **{k: v for k, v in res.items() if k not in metrics and k != "metrics"},
    }
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {record['python']}  commit {record['commit'][:12]}  "
          f"nproc {record['nproc']}")
    print(f"  why: {record['why']}")
    if args.trace:
        print(f"  traced pass of {values['trace.jobs']} jobs, "
              f"tracing overhead {values['trace.overhead']:.1%}")
    else:
        print(f"  closed loop, 1 client, 1 job at a time: {res['passes']} passes, "
              f"{res['attempted']} jobs, {res['p90_beyond']} beyond p90, "
              f"failed_frac {res['failed'] / res['attempted']:.4g} "
              f"({res['failed']}/{res['attempted']})")
        print(f"  times at the reference speed; the speed probe took "
              f"{res['slowdown_median']:.3f}x its reference time (median); "
              "in wall time: "
              + ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
