"""The four workloads: seeded job decks, their set-up and their output checks.

A workload runs in passes.  A pass is a deck of slots; the seed picks each
slot's variant among inputs of similar cost and shuffles the order, so every
pass of every seed has the same mix of light and heavy jobs.  Pass ``i`` of
seed ``s`` draws from its own generator, so a pass can be replayed exactly.

Jobs reach fatrec only through module attributes looked up at call time, so
the tracer's wrappers see every call.  Every in-process call gets an explicit
``CorrelatorCache``; the CLI runs in a temporary directory inside the checkout
with ``--cache-path`` there and ``FATREC_CACHE`` removed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import fatrec
from fatrec import cli as CLI
from fatrec import correlators as C
from fatrec import cutjoin as M
from fatrec import graphsum as G
from fatrec import npoint as N
from fatrec import virasoro as V
from fatrec.exact import CouplingMonomial, TPoly

from harness import Job, process_job

HERE = Path(__file__).resolve().parent


def pass_rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{index}")


def composition(rng: random.Random, total: int, parts: int,
                even: bool = False) -> tuple[int, ...]:
    """A random valence vector of ``parts`` positive parts summing to ``total``."""
    if even:
        return tuple(2 * m for m in composition(rng, total // 2, parts))
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0, *cuts, total]
    return tuple(sorted((b - a for a, b in zip(bounds, bounds[1:])), reverse=True))


def t_power(g: int, mu) -> int:
    """Selection rule: F_g^mu is a multiple of t^(2 - 2g - n + |mu|/2)."""
    return 2 - 2 * g - len(mu) + sum(mu) // 2


def max_genus(mu) -> int:
    return (t_power(0, mu) - 1) // 2


class Workload:
    name = ""
    processes = False  # True when each job is a child process

    def __init__(self, root: Path):
        self.root = root

    def setup(self) -> None:
        """Preparation that counts towards ``setup_s``."""

    def deck(self, seed: int, index: int, traced: bool = False) -> list[Job]:
        raise NotImplementedError

    def end_pass(self, tracer=None) -> None:
        """Called after every pass; ``tracer`` is set after a traced pass."""

    def close(self) -> None:
        """Release what the workload holds, at the end of the run."""


# ---------------------------------------------------------------------------
# correlator-cold
# ---------------------------------------------------------------------------

_HZ: dict[tuple[int, int], int] = {}


def harer_zagier(g: int, n: int) -> int:
    """epsilon_g(n): gluings of a 2n-gon into a genus-g surface.

    (n+1) e_g(n) = 2(2n-1) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2).
    """
    if g < 0 or n < 0:
        return 0
    if n == 0:
        return int(g == 0)
    key = (g, n)
    if key not in _HZ:
        num = (2 * (2 * n - 1) * harer_zagier(g, n - 1)
               + (n - 1) * (2 * n - 1) * (2 * n - 3) * harer_zagier(g - 1, n - 2))
        q, r = divmod(num, n + 1)
        if r:
            raise ArithmeticError(f"Harer-Zagier recursion not integral at {key}")
        _HZ[key] = q
    return _HZ[key]


def tutte(mu) -> Fraction:
    """Genus-0 coefficient for even valences (Tutte's census of slicings)."""
    e, v = sum(mu) // 2, len(mu)
    return (Fraction(factorial(e - 1), factorial(e - v + 2))
            * prod(comb(m - 1, m // 2) for m in mu))


class CorrelatorCold(Workload):
    """One job: ``correlator(g, mu, CorrelatorCache())``, nothing shared."""

    name = "correlator-cold"

    # (g, parts, totals, even valences).  One part: Harer-Zagier checks it;
    # genus 0 with even valences: Tutte's formula; |mu| <= 12: the oracle.
    # The costs of a pass spread evenly, on a log scale, from 1 ms to the two
    # heaviest jobs, so that no percentile sits in a gap between two costs.
    # The seven heaviest slots have one part and one total, so a fixed input:
    # job_p90_ms falls among them, and a drawn input there would move it.
    # Slots 4 to 6 from the top cost about the same, so that the 90th
    # percentile falls inside that group and not at its edge.
    SLOTS = (
        (0, 2, (12,), True), (0, 4, (12,), False), (1, 2, (12,), False),
        (2, 1, (12,), False), (1, 3, (12,), False), (3, 1, (12,), False),
        (0, 3, (10,), False), (1, 4, (12,), False), (0, 1, (38, 40), False),
        (0, 2, (40,), True), (2, 3, (16,), False), (3, 3, (16,), False),
        (1, 4, (16,), False), (2, 4, (16,), False), (1, 3, (18,), False),
        (0, 3, (32,), True), (2, 3, (18,), False), (0, 3, (30,), False),
        (2, 1, (18,), False), (0, 4, (24,), False), (3, 2, (18,), False),
        (2, 2, (20,), False), (1, 4, (20,), False), (1, 3, (22,), False),
        (2, 1, (20,), False), (1, 1, (30,), False), (4, 2, (18,), False),
        (1, 2, (24,), False), (0, 4, (40,), True), (3, 2, (20,), False),
        (4, 1, (20,), False), (3, 1, (22,), False), (2, 1, (24,), False),
        (2, 1, (26,), False), (3, 1, (22,), False), (3, 1, (24,), False),
        (3, 1, (26,), False), (4, 1, (24,), False), (1, 3, (20,), False),
        (2, 4, (18,), False), (0, 4, (30,), False), (3, 3, (18,), False),
    )

    def __init__(self, root):
        super().__init__(root)
        self._oracle: dict = {}

    def deck(self, seed, index, traced=False):
        rng = pass_rng(self.name, seed, index)
        jobs = [self._job(g, composition(rng, rng.choice(totals), parts, even))
                for g, parts, totals, even in self.SLOTS]
        rng.shuffle(jobs)
        return jobs

    def _job(self, g, mu) -> Job:
        def run():
            return C.correlator(g, mu, C.CorrelatorCache())
        return Job(f"correlator g={g} mu={mu}", run,
                   lambda value: self.check(g, mu, value))

    def oracle(self, mu):
        if mu not in self._oracle:
            self._oracle[mu] = G.oracle_correlators_all_genus(mu)
        return self._oracle[mu]

    def check(self, g, mu, value) -> bool:
        single = value.single_term()
        if single is None or single[0] != t_power(g, mu) or single[1] <= 0:
            return False
        coeff = single[1]
        if (coeff * prod(mu)).denominator != 1:
            return False
        if len(mu) == 1 and coeff != Fraction(harer_zagier(g, mu[0] // 2), mu[0]):
            return False
        if g == 0 and all(m % 2 == 0 for m in mu) and coeff != tutte(mu):
            return False
        if sum(mu) <= 12 and value != self.oracle(mu).get(g, TPoly.zero()):
            return False
        return True


# ---------------------------------------------------------------------------
# oracle-enum
# ---------------------------------------------------------------------------

class OracleEnum(Workload):
    """One job: a brute-force oracle, an enumeration, or a recursion check."""

    name = "oracle-enum"

    # (kind, total, parts or a fixed mu, genus): O oracle_correlators_all_genus,
    # E enumerate_graphs, V verify_abstract_recursion; a genus of None is
    # drawn among the feasible ones.  Costs spread evenly on a log scale from
    # 1 ms to the fixed heavy jobs at |mu| = 12 and 14; fixed inputs fill the
    # range around the median.
    SLOTS = (
        ("V", 6, 1, None), ("V", 6, 2, None), ("V", 8, 1, None),
        ("V", 8, 2, None), ("V", 8, 3, None), ("E", 8, 1, None),
        ("E", 8, 2, None), ("E", 8, 3, None), ("O", 10, 1, None),
        ("O", 10, 2, None), ("O", 10, 3, None), ("E", 10, 1, 0),
        ("V", 10, 1, 0), ("E", 10, 1, 1), ("E", 10, 1, 2), ("E", 10, 2, None),
        ("E", 10, 3, None), ("O", 12, 1, None), ("O", 12, 2, None),
        ("O", 12, 3, None), ("O", 12, 4, None), ("O", 12, 6, None),
        ("V", 10, 1, 1), ("V", 10, 1, 2), ("V", 12, 1, 0), ("E", 12, 1, 1),
        ("E", 12, 1, 2), ("O", 14, 1, None), ("O", 10, 4, None),
        ("E", 10, 2, None), ("V", 10, 2, 0), ("O", 12, 5, None),
        ("E", 10, 3, None), ("E", 10, (6, 4), 0), ("E", 10, (8, 2), 0),
        ("V", 10, (8, 2), 0), ("E", 10, (4, 4, 2), 0), ("E", 10, (5, 5), 2),
    )

    def __init__(self, root):
        super().__init__(root)
        self._cache = C.CorrelatorCache()

    def deck(self, seed, index, traced=False):
        rng = pass_rng(self.name, seed, index)
        jobs = []
        for kind, total, parts, genus in self.SLOTS:
            mu = parts if isinstance(parts, tuple) else composition(rng, total, parts)
            g = rng.randint(0, max_genus(mu)) if genus is None else genus
            jobs.append(self._job(kind, g, mu))
        rng.shuffle(jobs)
        return jobs

    def production(self, g, mu):
        return C.correlator(g, mu, self._cache)

    def _job(self, kind, g, mu) -> Job:
        if kind == "O":
            def check(by_genus):
                genera = range(max_genus(mu) + 1)
                return (set(by_genus) <= set(genera) and all(
                    by_genus.get(h, TPoly.zero()) == self.production(h, mu)
                    for h in genera))
            return Job(f"oracle mu={mu}",
                       lambda: G.oracle_correlators_all_genus(mu), check)
        if kind == "E":
            return Job(f"enumerate g={g} mu={mu}",
                       lambda: G.enumerate_graphs(g, mu),
                       lambda s: s.weighted_t_total() == self.production(g, mu))
        return Job(f"abstract-recursion g={g} mu={mu}",
                   lambda: G.verify_abstract_recursion(g, mu),
                   lambda report: report.equal)


# ---------------------------------------------------------------------------
# series-warm
# ---------------------------------------------------------------------------

def partitions(total: int, largest: int | None = None):
    """Partitions of ``total`` as descending tuples."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest or total), 0, -1):
        for rest in partitions(total - part, part):
            yield (part, *rest)


class SeriesWarm(Workload):
    """One job: a series, operator or n-point computation on a warm cache."""

    name = "series-warm"

    MAX_WEIGHT = 14

    # (kind, variants of similar cost); commutator probes are drawn.  Costs
    # spread evenly on a log scale from sub-millisecond checks to five fixed
    # heavy jobs and NPointRecursion(10).cell(0, 4); the jobs around the
    # median have fixed inputs, so that job_p50_ms does not hang on the seed.
    LIGHT_NPOINT = ((12, 1, 1), (14, 1, 1), (14, 0, 2), (12, 0, 2))
    LIGHT_QSC = ((2, 8), (3, 10), (2, 12))
    SLOTS = (
        ("commutator", None), ("commutator", None), ("commutator", None),
        ("commutator", None), ("npoint", LIGHT_NPOINT), ("npoint", LIGHT_NPOINT),
        ("qsc", LIGHT_QSC), ("qsc", LIGHT_QSC), ("qsc", ((3, 14),)),
        ("virasoro", ((1, 8), (2, 8))), ("partition", (8, 9)), ("expM", (6, 7)),
        ("partition", (10,)), ("expM", (8,)), ("virasoro", ((3, 8),)),
        ("qsc", ((4, 12),)), ("npoint", ((8, 0, 3),)),
        ("virasoro", ((2, 10), (3, 10), (4, 10))), ("expM", (10,)),
        ("npoint", ((10, 1, 2), (10, 2, 1), (10, 0, 3))), ("partition", (12,)),
        ("npoint", ((12, 2, 1),)), ("npoint", ((12, 1, 2),)),
        ("npoint", ((12, 0, 3),)), ("virasoro", ((4, 12),)), ("expM", (12,)),
        ("npoint", ((10, 0, 4),)), ("partition", (9,)), ("expM", (7,)),
        ("qsc", ((4, 10),)), ("expM", (9,)), ("partition", (11,)),
        ("qsc", ((5, 14),)), ("virasoro", ((4, 8),)),
    )

    def __init__(self, root):
        super().__init__(root)
        self.cache = C.CorrelatorCache()
        self._expect: dict = {}

    def setup(self):
        """Fill the cache with every correlator of weight <= MAX_WEIGHT."""
        for total in range(2, self.MAX_WEIGHT + 1, 2):
            for mu in partitions(total):
                for g in range(self.MAX_WEIGHT // 4 + 1):
                    C.correlator(g, mu, self.cache)

    def expect(self, key, compute):
        if key not in self._expect:
            self._expect[key] = compute()
        return self._expect[key]

    def deck(self, seed, index, traced=False):
        rng = pass_rng(self.name, seed, index)
        jobs = [self._job(kind, rng.choice(variants) if variants else
                          self._commutator_args(rng))
                for kind, variants in self.SLOTS]
        rng.shuffle(jobs)
        return jobs

    @staticmethod
    def _commutator_args(rng):
        m = rng.randint(-1, 4)
        n = rng.randint(max(-1, -1 - m), 4)
        weight = rng.randint(1, 8)
        parts = composition(rng, weight, rng.randint(1, min(weight, 4)))
        return m, n, tuple(min(p, 6) for p in parts)

    def _job(self, kind, args) -> Job:
        cache = self.cache
        if kind == "partition":
            k = args
            return Job(f"partition_function K={k}",
                       lambda: C.partition_function(k, cache),
                       lambda z: z.set_gs_one() == self.expect(
                           ("expM", k), lambda: M.exp_M_vacuum(k)))
        if kind == "virasoro":
            m, k = args
            return Job(f"verify_virasoro m={m} K={k}",
                       lambda: V.verify_virasoro(m, k, cache),
                       lambda report: report.passed)
        if kind == "expM":
            d = args
            return Job(f"exp_M_vacuum D={d}", lambda: M.exp_M_vacuum(d),
                       lambda z: z == self.expect(
                           ("Z", d), lambda: C.partition_function(d, cache).set_gs_one()))
        if kind == "commutator":
            m, n, probe = args
            return Job(f"commutator_check m={m} n={n} probe={probe}",
                       lambda: V.commutator_check(m, n, CouplingMonomial(probe)),
                       lambda ok: ok is True)
        if kind == "npoint":
            k, g, n = args
            return Job(f"NPointRecursion K={k} cell g={g} n={n}",
                       lambda: N.NPointRecursion(k, cache).cell(g, n),
                       lambda w: w == self.expect(
                           ("W", k, g, n), lambda: N.w_from_correlators(g, n, k, cache)))
        m, k = args
        return Job(f"qsc_residual m={m} K={k}",
                   lambda: N.qsc_residual(m, k, cache),
                   lambda report: report.passed)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

def cache_key(g, mu) -> tuple[int, tuple[int, ...]]:
    """The key of F_g^mu in a cache file: genus and sorted valences."""
    return int(g), tuple(sorted(int(m) for m in mu))


def render(argv: list[str]) -> bytes:
    """stdout of ``fatrec argv --no-cache``, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = CLI.main([*argv, "--no-cache"])
    if code != 0:
        raise RuntimeError(f"in-process fatrec {argv} exited {code}")
    return out.getvalue().encode()


class CliSession(Workload):
    """One job: one ``fatrec`` process; a pass is one session on one cache file."""

    name = "cli-session"
    processes = True

    # Requests of a session: first each once, cold, in a seeded order; then
    # the warm follow-ups and a few one-off requests of assorted cost.  Costs
    # run from a warm repeat (start-up and cache load) to three fixed cold
    # correlators.
    CORRELATOR_SLOTS = (
        ((3, "24"),), ((2, "14,12"),), ((2, "16,10"),),
        ((1, "12,8,4"), (1, "16,5,5"), (0, "16,8,8,8")),
    )
    OTHER_SLOTS = (
        [["partition", "--max-weight", k] for k in ("8", "10")],
        [["npoint", "--g", g, "--n", n, "--max-weight", k]
         for g, n, k in (("0", "3", "8"), ("1", "2", "8"), ("2", "1", "10"))],
        [["verify", "--suite", "virasoro", "--m-max", m, "--max-weight", k]
         for m, k in (("2", "8"), ("3", "8"), ("4", "8"))],
    )
    ONE_OFF_SLOTS = (
        [["free-energy", "--genus", g, "--max-weight", k]
         for g in ("0", "1", "2") for k in ("6", "8", "10")],
        [["qsc", "--m-max", m, "--max-weight", k]
         for m, k in (("2", "8"), ("3", "8"), ("3", "10"))],
        [["enumerate", "--mu", mu] for mu in ("4,4", "6,2", "3,3,2", "8")],
        [["enumerate", "--mu", mu, "--genus", "1"] for mu in ("6,4", "5,3,2")],
    )
    T_VALUES = ("1/2", "3/7", "2", "5/3")

    def __init__(self, root):
        super().__init__(root)
        self._renders: dict = {}
        self._session: Path | None = None
        self._traced_jobs: list = []

    def setup(self):
        self.tmp = self.root / ".perfbench" / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "FATREC_CACHE"}
        # An absolute path: the children run with a temporary working directory.
        self.env["PYTHONPATH"] = str(Path(fatrec.__file__).resolve().parent.parent)

    def expected(self, argv) -> bytes:
        key = tuple(argv)
        if key not in self._renders:
            self._renders[key] = render(argv)
        return self._renders[key]

    def deck(self, seed, index, traced=False):
        rng = pass_rng(self.name, seed, index)
        cold, warm, computed = [], [], set()
        for slot in self.CORRELATOR_SLOTS:
            g, mu = rng.choice(slot)
            computed.add(cache_key(g, mu.split(",")))
            base = ["correlator", "--g", str(g), "--mu", mu]
            cold.append(base)
            warm += [base, [*base, "--format", "json"],
                     [*base, "--t", rng.choice(self.T_VALUES)]]
        for slot in self.OTHER_SLOTS:
            argv = rng.choice(slot)
            cold.append(argv)
            warm.append(argv)
        warm.append([*rng.choice(self.OTHER_SLOTS[0]), "--format", "json"])
        warm += [rng.choice(slot) for slot in self.ONE_OFF_SLOTS]
        rng.shuffle(cold)
        rng.shuffle(warm)
        warm.insert(rng.randrange(len(warm) + 1), ["cache"])

        self._session = Path(tempfile.mkdtemp(prefix="session-", dir=self.tmp))
        cache_path = str(self._session / "fatrec-cache.json")
        first: dict = {}
        self._traced_jobs = []
        jobs = []
        for i, argv in enumerate(cold + warm):
            full = [*argv, "--cache-path", cache_path]
            if traced:
                record = str(self._session / f"trace-{i}.json")
                cmd = [sys.executable, str(HERE / "cli_shim.py"), record, "--", *full]
                self._traced_jobs.append((i, record))
            else:
                cmd = [sys.executable, "-m", "fatrec.cli", *full]
            jobs.append(process_job(f"fatrec {' '.join(argv)}", cmd,
                                    str(self._session), self.env,
                                    self._expect(argv, cache_path, first, computed)))
        return jobs

    def _expect(self, argv, cache_path, first, computed):
        """The check of one request; ``computed`` holds the keys of the
        correlators that the session's cold requests computed."""
        def expect(proc):
            if argv == ["cache"]:
                # Every cold request comes before it, so their correlators
                # must have been saved to the file.
                with open(cache_path, encoding="utf-8") as fh:
                    entries = json.load(fh)["entries"]
                saved = {cache_key(e["g"], e["mu"]) for e in entries}
                if not computed <= saved:
                    return False
                want = f"cache path={cache_path} entries={len(entries)} status=pass\n"
                return proc.stdout == want.encode()
            # A warm repeat must print the bytes of the cold run.
            if first.setdefault(tuple(argv), proc.stdout) != proc.stdout:
                return False
            return proc.stdout == self.expected(argv)
        return expect

    def end_pass(self, tracer=None):
        if tracer is not None:
            tracer.counts["correlators.cache_bytes"] += os.path.getsize(
                self._session / "fatrec-cache.json")
            for i, record in self._traced_jobs:
                if os.path.exists(record):  # absent if the child died early
                    with open(record, encoding="utf-8") as fh:
                        tracer.merge(json.load(fh), i)
        shutil.rmtree(self._session, ignore_errors=True)
        self._session = None

    def close(self):
        if self._session is not None:
            shutil.rmtree(self._session, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CorrelatorCold, OracleEnum, SeriesWarm, CliSession)}
