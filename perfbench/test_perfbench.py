"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from harness import Job, run_job, summarize  # noqa: E402


def test_wrong_value_is_a_failure():
    outcome = run_job(Job("wrong", lambda: 41, lambda v: v == 42))
    assert not outcome.ok and outcome.error == "wrong output"


def test_raised_exception_is_a_failure_and_the_loop_goes_on():
    jobs = [Job("raises", lambda: 1 // 0, lambda v: True),
            Job("check raises", lambda: None, lambda v: v[0]),
            Job("fine", lambda: 42, lambda v: v == 42)]
    summary = summarize([run_job(j) for j in jobs])
    assert (summary["attempted"], summary["failed"]) == (3, 2)
    assert [e for _, e in summary["failures"]] == ["raised", "check raised"]


def _cli():
    session = workloads.CliSession(ROOT)
    session.setup()
    return session


def test_nonzero_cli_exit_is_a_failure(tmp_path):
    session = _cli()
    # A valence of 0 inside a vector is a usage error: fatrec exits non-zero.
    argv = ["correlator", "--g", "0", "--mu", "0,2", "--no-cache"]
    job = harness.process_job("bad", [sys.executable, "-m", "fatrec.cli", *argv],
                              str(tmp_path), session.env, lambda proc: True)
    outcome = run_job(job)
    assert not outcome.ok and outcome.error == "wrong output"


def test_output_on_stderr_is_a_failure(tmp_path):
    code = "import sys; print('warning: cannot save cache', file=sys.stderr)"
    job = harness.process_job("warns", [sys.executable, "-c", code],
                              str(tmp_path), {}, lambda proc: True)
    outcome = run_job(job)
    assert not outcome.ok and outcome.error == "wrong output"


def test_cache_check_needs_the_cold_correlators(tmp_path):
    session = _cli()
    cache_path = tmp_path / "fatrec-cache.json"
    want = f"cache path={cache_path} entries=0 status=pass\n".encode()
    proc = subprocess.CompletedProcess([], 0, want, b"")
    cache_path.write_text('{"version": 1, "entries": []}')
    check = session._expect(["cache"], str(cache_path), {}, {(3, (24,))})
    assert not check(proc)
    assert session._expect(["cache"], str(cache_path), {}, set())(proc)


def test_cli_job_matches_in_process_rendering(tmp_path):
    session = _cli()
    argv = ["correlator", "--g", "0", "--mu", "10"]
    job = harness.process_job(
        "good", [sys.executable, "-m", "fatrec.cli", *argv, "--no-cache"],
        str(tmp_path), session.env,
        lambda proc: proc.stdout == session.expected(argv))
    assert run_job(job).ok
    assert session.expected(argv) == b"21/5 * t^6\n"


def test_decks_depend_only_on_the_seed():
    wl = workloads.CorrelatorCold(ROOT)
    names = [j.name for j in wl.deck(7, 0)]
    assert names == [j.name for j in wl.deck(7, 0)]
    assert names != [j.name for j in wl.deck(8, 0)]
    assert names != [j.name for j in wl.deck(7, 1)]


def test_closed_forms_used_by_the_checks():
    catalan = [comb(2 * n, n) // (n + 1) for n in range(12)]
    assert [workloads.harer_zagier(0, n) for n in range(12)] == catalan
    assert workloads.harer_zagier(1, 2) == 1  # the torus from a square
    assert all(workloads.tutte((2 * n,)) == Fraction(catalan[n], 2 * n)
               for n in range(1, 12))


def test_self_time_excludes_nested_layers():
    tr = tracer.Tracer()
    inner = tr.timed("b", "inner", lambda: time.sleep(0.03))

    def outer_fn():
        time.sleep(0.02)
        inner()

    outer = tr.timed("a", "outer", outer_fn)
    tr.job(0, "job", outer)
    assert 0.02 <= tr.busy["a"] < 0.03 <= tr.busy["b"] < 0.045
    assert tr.busy["job"] < 0.01
    root, a, b = sorted(tr.spans)
    assert (root[1], a[1], b[1]) == (None, root[0], a[0])


def test_metrics_use_times_at_the_reference_speed():
    outcomes = [harness.Outcome("slow phase", 0.2, 2.0, True),
                harness.Outcome("fast phase", 0.1, 1.0, True)]
    summary = summarize(outcomes)
    assert summary["job_p50_ms"] == summary["job_p90_ms"] == 100.0
    assert summary["jobs_per_s"] == 10.0
    assert summary["raw"]["job_p90_ms"] == 200.0
