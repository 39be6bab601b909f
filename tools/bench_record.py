"""Record one benchmark snapshot of this checkout as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N [--seed 1] [--out PATH]

Run from anywhere; every command runs at the root of the checkout.  For each
workload of BENCHMARK.json it runs ``perfbench/run.py`` for the
``run_seconds`` that BENCHMARK.json sets, once with ``--trace 0`` (the
end-to-end metrics) and once with ``--trace 1`` (the per-layer metrics), and
keeps the JSON result each prints last.  It also times
the tier-1 test command, and records the Python version, the commit (and the
paths that differ from it), ``nproc`` and ``PYTHONDONTWRITEBYTECODE``, which
decides whether fatrec processes compile their modules from source.

``broken_per_layer`` names the per-layer metrics that an unmended ``FOUND``
line of CHANGES.md says no longer measure what their name says: the metric
names in the first clause of the line (up to its first ";" or ", while"),
``{layer}.busy_s`` standing for every layer's busy time.  Read those figures
with that line beside them.

Stdlib only; it is not a test, and the tier-1 suite does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def git(*args) -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)
    return proc.stdout.rstrip("\n") if proc.returncode == 0 else ""


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip()}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"command": "PYTHONPATH=src python -m pytest -q "
                       "--continue-on-collection-errors -p no:cacheprovider",
            "exit": proc.returncode, "wall_s": round(wall, 3),
            "summary": lines[-1] if lines else ""}


def broken_per_layer(names: list[str]) -> dict[str, list[int]]:
    """Each per-layer name an unmended FOUND line marks, with its line numbers."""
    marked: dict[str, list[int]] = {}
    path = ROOT / "CHANGES.md"
    if not path.exists():
        return marked
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.startswith("FOUND:"):
            continue
        clause = re.split(r";|, while ", line, maxsplit=1)[0]
        for token in re.findall(r"`([^`]+)`", clause):
            if "{layer}" in token:
                pattern = re.escape(token).replace(r"\{layer\}", r"[a-z_]+")
                hits = [n for n in names if re.fullmatch(pattern, n)]
            else:
                hits = [token] if token in names else []
            for name in hits:
                marked.setdefault(name, []).append(number)
    return dict(sorted(marked.items()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="default: BENCH_<pr>.json at the root")
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        workloads[name] = {f"trace{t}": bench(name, args.seed, seconds, t)
                           for t in (0, 1)}
        print(f"{name}: done", file=sys.stderr)
    record = {
        "pr": args.pr,
        "commit": git("rev-parse", "HEAD") or "unknown",
        "differs_from_commit": git("status", "--porcelain").splitlines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seed": args.seed,
        "seconds": seconds,
        "tier1": tier1(),
        "workloads": workloads,
        "broken_per_layer": broken_per_layer([m["name"] for m in spec["per_layer"]]),
    }
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(out)
    ok = record["tier1"]["exit"] == 0 and all(
        r.get("correct") for w in workloads.values() for r in w.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
