"""Production correlators, free energies, partition function, cache."""

import fcntl
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

import fatrec.correlators as core
import fatrec.suites as suites
from fatrec.cli import main
from fatrec.correlators import (CacheError, CacheMismatch, CorrelatorCache,
                                correlator, free_energy, full_free_energy,
                                genus_range, partition_function)
from fatrec.cutjoin import exp_M_vacuum
from fatrec.exact import CouplingMonomial, TPoly
from fatrec.graphsum import RecursionReport, oracle_correlator
from fatrec.virasoro import verify_virasoro


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def tp(e, c):
    return TPoly.t_power(e, Fraction(c))


def test_one_point_values():
    assert correlator(0, (4,)) == tp(3, Fraction(1, 2))
    assert correlator(0, (6,)) == tp(4, Fraction(5, 6))
    assert correlator(0, (8,)) == tp(5, Fraction(7, 4))
    assert correlator(0, (10,)) == tp(6, Fraction(21, 5))


def test_one_point_catalan_closed_form():
    for m in range(1, 9):
        assert correlator(0, (2 * m,)) == tp(m + 1, Fraction(catalan(m), 2 * m))


def test_two_point_closed_forms():
    for m in range(0, 7):
        assert correlator(0, (1, 2 * m + 1)) == tp(m + 1, catalan(m))
    for m in range(1, 7):
        assert correlator(0, (2, 2 * m)) == tp(m + 1, Fraction(catalan(m), 2))
    for m in range(1, 7):
        expected = Fraction(catalan(m), 3) + Fraction(2 * catalan(m - 1), 3)
        assert correlator(0, (3, 2 * m - 1)) == tp(m + 1, expected)


def test_low_genus_known_values():
    assert correlator(1, (6,)) == tp(2, Fraction(5, 3))
    assert correlator(1, (4,)) == tp(1, Fraction(1, 4))
    assert correlator(0, (1, 1)) == tp(1, 1)
    assert correlator(0, (2, 6)) == tp(4, Fraction(5, 2))


def test_initial_and_degenerate_values():
    assert correlator(0, (0,)) == tp(1, 1)
    assert correlator(1, (0,)).is_zero()
    assert correlator(-1, (4,)).is_zero()
    assert correlator(0, (3,)).is_zero()


def test_zero_valence_in_vector_rejected():
    with pytest.raises(ValueError):
        correlator(0, (2, 0))


def test_empty_mu_rejected():
    with pytest.raises(ValueError, match="mu must have at least one vertex"):
        correlator(0, ())


def test_permutation_invariance():
    assert correlator(0, (2, 4, 6)) == correlator(0, (6, 2, 4))
    assert correlator(1, (1, 3, 2)) == correlator(1, (3, 2, 1))


def test_monomiality():
    for mu in [(4,), (2, 2), (1, 3), (2, 4, 6), (1, 1, 1, 3)]:
        for g in range(0, 3):
            value = correlator(g, mu)
            if value.is_zero():
                continue
            single = value.single_term()
            assert single is not None
            assert single[0] == 2 - 2 * g - len(mu) + sum(mu) // 2


def test_matches_oracle_medium():
    for mu in [(6,), (8,), (2, 4), (3, 3), (1, 1, 4), (2, 2, 2), (1, 2, 3)]:
        for g in range(0, 3):
            assert correlator(g, mu) == oracle_correlator(g, mu), (g, mu)


def c_of(series, couplings, t, gs=0):
    return series.coeff(CouplingMonomial(couplings, t, gs))


def test_free_energy_genus0_tabulated_terms():
    f0 = free_energy(0, 6)
    assert c_of(f0, (1, 1), 1) == Fraction(1, 2)
    assert c_of(f0, (1, 1, 2), 1) == Fraction(1, 2)
    assert c_of(f0, (1, 1, 2, 2), 1) == Fraction(1, 2)
    assert c_of(f0, (1, 1, 1, 3), 1) == Fraction(1, 3)
    assert c_of(f0, (2,), 2) == Fraction(1, 2)
    assert c_of(f0, (2, 2), 2) == Fraction(1, 4)
    assert c_of(f0, (1, 3), 2) == 1
    assert c_of(f0, (2, 2, 2), 2) == Fraction(1, 6)
    assert c_of(f0, (4,), 3) == Fraction(1, 2)
    assert c_of(f0, (3, 3), 3) == Fraction(2, 3)
    assert c_of(f0, (6,), 4) == Fraction(5, 6)


def test_free_energy_genus1_tabulated_terms():
    f1 = free_energy(1, 6)
    assert c_of(f1, (4,), 1) == Fraction(1, 4)
    assert c_of(f1, (1, 5), 1) == 1
    assert c_of(f1, (2, 4), 1) == Fraction(1, 2)
    assert c_of(f1, (6,), 2) == Fraction(5, 3)


def test_free_energy_genus2_weight2_vanishes():
    assert free_energy(2, 2).is_zero()


def test_partition_function_examples():
    from fatrec.exact import CouplingSeries
    assert partition_function(0) == CouplingSeries.one(0)
    z2 = partition_function(2)
    assert c_of(z2, (1, 1), 1, -2) == Fraction(1, 2)
    z4 = partition_function(4)
    assert c_of(z4, (1, 1, 1, 1), 2, -4) == Fraction(1, 8)


def test_full_free_energy_gs_powers():
    f = full_free_energy(6)
    assert c_of(f, (4,), 3, -2) == Fraction(1, 2)   # genus 0
    assert c_of(f, (4,), 1, 0) == Fraction(1, 4)    # genus 1


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.json"
    cache = CorrelatorCache(str(path))
    correlator(0, (4,), cache)
    correlator(1, (4,), cache)
    cache.save()
    text = path.read_text()
    assert '"version":1' in text
    fresh = CorrelatorCache(str(path))
    fresh.load()
    assert fresh.table == cache.table
    assert fresh.serialize() == cache.serialize()


def test_cache_empty_serialization(tmp_path):
    cache = CorrelatorCache(str(tmp_path / "c.json"))
    assert '"entries":[]' in cache.serialize()


def test_cache_single_entry_format(tmp_path):
    cache = CorrelatorCache(str(tmp_path / "c.json"))
    correlator(0, (4,), cache)
    cache.table = {k: v for k, v in cache.table.items() if k == (0, (4,))}
    assert cache.serialize() == (
        '{"entries":[{"coeff":"1/2","g":0,"mu":[4],"t_power":3}],"version":1}')


def test_cache_version_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "entries": []}')
    cache = CorrelatorCache(str(path))
    with pytest.raises(CacheError, match="version"):
        cache.load()


def test_cache_corrupt_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(CacheError):
        CorrelatorCache(str(path)).load()


def test_cache_paranoid_detects_poison(tmp_path):
    cache = CorrelatorCache(None, paranoid=True)
    correlator(0, (4,), cache)
    assert correlator(0, (4,), cache) == tp(3, Fraction(1, 2))
    assert cache.table[(0, (4,))] == 2
    cache.table[(0, (4,))] = 3  # C_0(4) = 4 * 1/2 = 2
    with pytest.raises(AssertionError, match="cache mismatch"):
        correlator(0, (4,), cache)


def test_cache_lock_left_empty_is_broken(tmp_path):
    # A lock is linked into place with its PID written, so an empty one is
    # a leftover and no longer blocks every later save.
    path = tmp_path / "c.json"
    lock = tmp_path / "c.json.lock"
    lock.write_text("")
    cache = CorrelatorCache(str(path))
    correlator(0, (4, 2), cache)
    cache.save()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
    loaded = CorrelatorCache(str(path))
    loaded.load()
    assert loaded.table == cache.table


def test_cache_lock_of_another_live_process_holds(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_LOCK_WAIT_S", 0.02)  # the holder never lets go
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        path = tmp_path / "c.json"
        lock = tmp_path / "c.json.lock"
        lock.write_text(str(child.pid))
        cache = CorrelatorCache(str(path))
        correlator(0, (4,), cache)
        with pytest.raises(CacheError, match="cache is locked"):
            cache.save()
        assert lock.read_text() == str(child.pid)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json.lock"]
    finally:
        child.kill()
        child.wait(timeout=10)


def test_cache_lock_of_a_live_process_holds(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_LOCK_WAIT_S", 0.02)  # the holder never lets go
    path = tmp_path / "c.json"
    lock = tmp_path / "c.json.lock"
    lock.write_text(str(os.getpid()))
    cache = CorrelatorCache(str(path))
    correlator(0, (4,), cache)
    with pytest.raises(CacheError, match="cache is locked"):
        cache.save()
    assert lock.read_text() == str(os.getpid())
    assert not path.exists()


def test_cache_lock_that_never_opens_times_out(tmp_path, monkeypatch):
    # A dangling symlink exists for the link but cannot be opened, so each
    # pass judges it released; the wait still ends, without spinning.
    monkeypatch.setattr(core, "_LOCK_WAIT_S", 0.05)
    path = tmp_path / "c.json"
    lock = tmp_path / "c.json.lock"
    lock.symlink_to(tmp_path / "nowhere")
    judged = []
    judge = core._break_if_stale
    monkeypatch.setattr(core, "_break_if_stale",
                        lambda name: judged.append(name) or judge(name))
    cache = CorrelatorCache(str(path))
    correlator(0, (4,), cache)
    with pytest.raises(CacheError, match="cache is locked"):
        cache.save()
    assert lock.is_symlink() and not path.exists()
    # about two passes per poll of 5 ms, not thousands
    assert 2 <= len(judged) <= 2 * 0.05 / core._LOCK_POLL_S + 4


def test_cache_save_waits_for_a_live_holder(tmp_path):
    # A live holder that lets go within the wait: the save lands, and the
    # holder's lock is not broken meanwhile.
    path = tmp_path / "c.json"
    lock = tmp_path / "c.json.lock"
    lock.write_text(str(os.getpid()))
    cache = CorrelatorCache(str(path))
    correlator(0, (4, 2), cache)
    release = threading.Timer(0.05, lock.unlink)
    release.start()
    try:
        cache.save()
    finally:
        release.join(timeout=10)
    assert not release.is_alive()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
    loaded = CorrelatorCache(str(path))
    loaded.load()
    assert loaded.table == cache.table


def test_cache_lock_of_a_dead_process_is_broken(tmp_path, monkeypatch):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its PID no longer exists
    path = tmp_path / "c.json"
    lock = tmp_path / "c.json.lock"
    lock.write_text(str(child.pid))
    cache = CorrelatorCache(str(path))
    correlator(0, (4, 2), cache)
    held = []
    replace = os.replace
    monkeypatch.setattr(core.os, "replace",
                        lambda src, dst: (held.append(lock.read_text()), replace(src, dst)))
    cache.save()
    assert held == [str(os.getpid())]  # the save held a lock naming this process
    assert not lock.exists()
    loaded = CorrelatorCache(str(path))
    loaded.load()
    assert loaded.table == cache.table


def test_cache_stale_lock_retaken_meanwhile_is_kept(tmp_path, monkeypatch):
    # A live process takes the lock between the breaker's judgement of the
    # stale one and its unlink: the breaker leaves the new lock alone.
    lock = tmp_path / "c.json.lock"
    lock.write_text("")
    judge = core._holder_is_dead

    def judge_then_retake(fh):
        dead = judge(fh)
        lock.unlink()
        lock.write_text(str(os.getpid()))
        return dead
    monkeypatch.setattr(core, "_holder_is_dead", judge_then_retake)
    assert core._break_if_stale(str(lock))
    assert lock.read_text() == str(os.getpid())


def test_cache_lock_released_meanwhile_is_not_broken(tmp_path):
    lock = tmp_path / "c.json.lock"
    assert core._break_if_stale(str(lock))  # gone: take it with the next link
    lock.write_text("")
    with open(lock) as held:
        fcntl.flock(held, fcntl.LOCK_EX)  # another breaker's flock
        assert not core._break_if_stale(str(lock))
    assert lock.exists()


def test_cache_save_keeps_the_cells_of_another_writer(tmp_path):
    path = str(tmp_path / "c.json")
    seed = CorrelatorCache(path)
    correlator(0, (2,), seed)
    seed.save()
    first, second = CorrelatorCache(path), CorrelatorCache(path)
    first.load()
    second.load()
    correlator(1, (4,), first)
    correlator(0, (3, 1), second)
    first.save()
    second.save()  # the file changed since second read it
    merged = CorrelatorCache(path)
    merged.load()
    assert (1, (4,)) in merged.table and (0, (3, 1)) in merged.table
    assert merged.table == {**first.table, **second.table}
    assert second.table == merged.table
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_cache_save_refuses_a_cell_of_another_value(tmp_path):
    path = tmp_path / "c.json"
    other = CorrelatorCache(str(path))
    correlator(0, (4,), other)
    other.save()
    before = path.read_bytes()
    cache = CorrelatorCache(str(path))
    correlator(0, (2,), cache)
    cache.table[(0, (4,))] = 3  # C_0(4) = 2 in the file
    with pytest.raises(CacheError, match="another value"):
        cache.save()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_cache_single_writer_does_not_read_its_file_again(tmp_path, monkeypatch):
    path = str(tmp_path / "c.json")
    reads = []
    read = CorrelatorCache._read
    monkeypatch.setattr(CorrelatorCache, "_read",
                        lambda self: (reads.append(self), read(self))[1])
    cache = CorrelatorCache(path)
    correlator(0, (4,), cache)
    cache.save()
    correlator(1, (4,), cache)
    cache.save()
    cache.load()
    correlator(0, (6,), cache)
    cache.save()
    assert reads == [cache]  # the load only
    other = CorrelatorCache(path)
    correlator(0, (8,), other)
    other.save()  # reads the file it never saw
    cache.save()  # reads it again: other wrote it
    assert reads == [cache, other, cache]
    assert (0, (8,)) in cache.table


# One writer process: load, derive a cell of its own, save, retrying while
# another holds the lock.
_WRITER = """
import sys, time
from fatrec.correlators import CacheError, CorrelatorCache, correlator
cache = CorrelatorCache(sys.argv[1])
cache.load()
correlator(0, (int(sys.argv[2]),), cache)
deadline = time.monotonic() + 20
while True:
    try:
        cache.save()
        break
    except CacheError as exc:
        if "locked" not in str(exc) or time.monotonic() > deadline:
            raise
        time.sleep(0.001)
"""


def test_cache_concurrent_writers_lose_no_cell(tmp_path):
    path = str(tmp_path / "c.json")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(core.__file__)))
    sizes = (10, 12, 14, 16, 18)  # more writers than cores
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, path, str(m)], env=env)
             for m in sizes]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    merged = CorrelatorCache(path)
    merged.load()
    for m in sizes:
        assert merged.table[(0, (m,))] == core.gluing_count(0, (m,), CorrelatorCache())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_cache_load_rejects_selection_rule_violation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version":1,"entries":'
                    '[{"coeff":"1/2","g":0,"mu":[4],"t_power":2}]}')
    with pytest.raises(CacheError, match="malformed cache entry"):
        CorrelatorCache(str(path)).load()


def test_cache_load_rejects_non_integral_coeff(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version":1,"entries":'
                    '[{"coeff":"1/3","g":0,"mu":[4],"t_power":3}]}')
    with pytest.raises(CacheError, match="malformed cache entry"):
        CorrelatorCache(str(path)).load()


def test_cache_load_rejects_negative_t_power(tmp_path):
    # the selection rule gives t^-2 at g = 2, mu = (2,); no correlator has it
    path = tmp_path / "bad.json"
    path.write_text('{"version":1,"entries":'
                    '[{"coeff":"1/2","g":2,"mu":[2],"t_power":-2}]}')
    with pytest.raises(CacheError, match="malformed cache entry"):
        CorrelatorCache(str(path)).load()


def test_cache_load_rejects_non_positive_valence(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version":1,"entries":'
                    '[{"coeff":"0","g":0,"mu":[4,0],"t_power":0}]}')
    with pytest.raises(CacheError, match="malformed cache entry"):
        CorrelatorCache(str(path)).load()


def test_paranoid_costs_a_constant_factor(monkeypatch):
    # count the cells the integer core derives: one _compute call per cell
    calls = []
    derive = core._compute

    def counted(g, mu, ints):
        calls.append((g, mu))
        return derive(g, mu, ints)

    monkeypatch.setattr(core, "_compute", counted)
    plain = CorrelatorCache()
    value = correlator(2, (16,), plain)
    plain_cells = len(calls)
    assert plain_cells == len(plain.table)
    calls.clear()
    paranoid = CorrelatorCache(None, paranoid=True)
    assert correlator(2, (16,), paranoid) == value
    assert len(calls) <= 2 * plain_cells
    assert paranoid.serialize() == plain.serialize()
    # a hit is re-derived one level, from its cached children
    calls.clear()
    assert correlator(2, (16,), paranoid) == value
    assert calls == [(2, (16,))]


def test_deep_one_point_has_no_recursion_limit():
    value = correlator(0, (2000,), CorrelatorCache())
    assert value == tp(1001, Fraction(catalan(1000), 2000))


def harer_zagier(max_genus, max_n):
    """epsilon_g(n), gluings of a 2n-gon into a genus-g surface:
    (n+1) e_g(n) = 2(2n-1) e_g(n-1) + (n-1)(2n-1)(2n-3) e_{g-1}(n-2)."""
    eps = {(g, 0): int(g == 0) for g in range(max_genus + 1)}
    for n in range(1, max_n + 1):
        for g in range(max_genus + 1):
            num = 2 * (2 * n - 1) * eps[(g, n - 1)]
            if g and n >= 2:
                num += (n - 1) * (2 * n - 1) * (2 * n - 3) * eps[(g - 1, n - 2)]
            assert num % (n + 1) == 0
            eps[(g, n)] = num // (n + 1)
    return eps


def test_harer_zagier_one_point():
    cache = CorrelatorCache()
    for (g, n), eps in harer_zagier(3, 15).items():
        if n == 0:
            continue
        value = correlator(g, (2 * n,), cache)
        if eps == 0:
            assert value.is_zero(), (g, n)
        else:
            assert value == tp(n + 1 - 2 * g, Fraction(eps, 2 * n)), (g, n)


def even_partitions(total, max_parts, largest=None):
    """Partitions of ``total`` into at most ``max_parts`` even parts, descending."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for part in range(min(total, largest or total), 0, -1):
        if part % 2 == 0:
            for tail in even_partitions(total - part, max_parts - 1, part):
                yield (part,) + tail


def test_tutte_genus_zero_even_valences():
    # Tutte's census of slicings: F_0^mu = (e-1)!/(e-n+2)! prod C(m-1, m/2) t^(e-n+2)
    cache = CorrelatorCache()
    for total in range(2, 25, 2):
        for mu in even_partitions(total, 6):
            e, n = total // 2, len(mu)
            coeff = Fraction(math.factorial(e - 1), math.factorial(e - n + 2))
            for m in mu:
                coeff *= math.comb(m - 1, m // 2)
            assert correlator(0, mu, cache) == tp(e - n + 2, coeff), mu


@pytest.mark.parametrize("g, mu, entries, digest", [
    (2, (14, 12), 562,
     "3f80d84a662bdb1b3bca2a26a341e497c0fb7fbcf909d9ebff7ad52f95431ca7"),
    (3, (24,), 526,
     "ffa229e7143a1158eba8214c90fea4e40d1461b8f44467d31729b899c6ec4d85"),
    (2, (8, 6, 6, 4), 595,
     "1720aa3cb409b5bd24fd92533b79096352f65d3f8327c97d29fac686de6cc526"),
    (1, (5, 5, 3, 3, 2, 2), 194,
     "44dc7ec5748af97d14b9f07bb5bf444f986ded91bd2bf09da2ca5e2cae4ad4c6"),
])
def test_cold_cache_golden(g, mu, entries, digest):
    cache = CorrelatorCache()
    correlator(g, mu, cache)
    assert len(cache.table) == entries
    assert hashlib.sha256(cache.serialize().encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("npoint --g 0 --n 4 --max-weight 10 --route recursion --format json",
     "c72d5433c6ad7afea0c24685a04abf8f2fb812cf5668e5c65cd41ecd7d6ba9b8"),
    ("npoint --g 2 --n 1 --max-weight 12 --route recursion",
     "bea7a085687c1c07f04ed99797003dba6d4ab1b86af3ce82fcc41682054287e2"),
    ("qsc --m-max 5 --max-weight 14 --format json",
     "01a3e62a1a45546432ba6a3d354388c3cc6e96ea7b4cd1fd64653b9201c816c6"),
], ids=["npoint_0_4_json", "npoint_2_1", "qsc_json"])
def test_cli_npoint_golden(argv, digest, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*argv.split(), "--no-cache"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_table_holds_gluing_counts():
    cache = CorrelatorCache()
    for g, mu in [(0, (4,)), (1, (6,)), (2, (8, 4)), (1, (5, 3, 2)), (0, (3,))]:
        count = core.gluing_count(g, mu, cache)
        value = correlator(g, mu, cache)
        assert type(count) is int
        assert value == (TPoly.zero() if not count else
                         tp(core._t_power(g, mu), Fraction(count, math.prod(mu))))
    assert all(type(v) is int for v in cache.table.values())
    assert core.gluing_count(-1, (4,), cache) == 0
    assert core.gluing_count(0, (3, 2), cache) == 0
    with pytest.raises(ValueError):
        core.gluing_count(0, (0, 2), cache)


def test_cache_load_accepts_non_canonical_coeffs(tmp_path):
    cache = CorrelatorCache()
    correlator(2, (8, 4), cache)
    canonical = tmp_path / "canonical.json"
    canonical.write_text(cache.serialize())
    entries = json.loads(cache.serialize())["entries"]
    decimals = 0
    for i, entry in enumerate(entries):
        value = Fraction(entry["coeff"])
        p, q = value.numerator, value.denominator
        if value == 0:
            entry["coeff"] = ("0", "-0", "0/7", " 0")[i % 4]
        elif 10 ** 6 % q == 0 and i % 2:
            digits = str(p * 10 ** 6 // q).rjust(7, "0")
            entry["coeff"] = f"{digits[:-6]}.{digits[-6:]}"  # e.g. "0.500000"
            decimals += 1
        else:
            entry["coeff"] = (f"{2 * p}/{2 * q}", f" {p}/{q}", f"{p}/{q} ")[i % 3]
    assert decimals >= 5
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps({"version": 1, "entries": entries}))
    a, b = CorrelatorCache(str(canonical)), CorrelatorCache(str(loose))
    a.load()
    b.load()
    assert a.table == b.table == cache.table
    assert b.serialize() == cache.serialize()


def test_series_hold_integer_labelled_coefficients():
    cache = CorrelatorCache()
    for series in (partition_function(12, cache), full_free_energy(12, cache),
                   exp_M_vacuum(12)):
        assert series._a and all(type(v) is int for v in series._a.values())


@pytest.mark.parametrize("g", range(4))
def test_free_energy_labelled_coefficients_are_the_table_cells(g):
    cache = CorrelatorCache()
    fg = free_energy(g, 12, cache)
    cells = {(mu[::-1], core._t_power(g, mu), 0): v
             for (h, mu), v in cache.table.items() if h == g and v and sum(mu) <= 12}
    assert cells and fg._a == cells


@pytest.mark.parametrize("render, digest", [
    (lambda: str(partition_function(12)),
     "6689152b96741697b1704ccd27206baec1813eff7b188246ce4e2170180ea1f3"),
    (lambda: str(exp_M_vacuum(12)),
     "04b7a8ebd6020ca0eb3bc5da1cf58e7a7cbeb55ab3b8f8bd418ffb7683cd947b"),
    (lambda: json.dumps(verify_virasoro(4, 12).to_dict()),
     "8e4f022edf4d5a1f9a3cbe21bea522dd9e86a421b56a3e28df6759d99ee63a20"),
], ids=["partition_function", "exp_M_vacuum", "verify_virasoro"])
def test_series_golden(render, digest):
    assert hashlib.sha256(render().encode()).hexdigest() == digest


def _partitions_reference(total, max_parts):
    """The recursive closure that ``_partitions`` replaced."""
    def rec(remaining, maximum, prefix):
        if remaining == 0:
            yield prefix
        elif len(prefix) < max_parts:
            for part in range(min(remaining, maximum), 0, -1):
                yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(total, total, ())


def _compositions_reference(total, max_parts):
    """The recursive closure that ``suites._compositions_of`` replaced."""
    def rec(remaining, prefix):
        if remaining == 0:
            if prefix:
                yield prefix
            return
        if len(prefix) == max_parts:
            return
        for part in range(1, remaining + 1):
            yield from rec(remaining - part, prefix + (part,))

    yield from rec(total, ())


def _abstract_suite_inputs(monkeypatch, max_size, max_parts):
    """The (g, mu) that ``abstract_recursion_suite`` checks, in its order."""
    seen = []

    def record(g, mu):
        seen.append((g, mu))
        return RecursionReport(g, mu, True)

    monkeypatch.setattr(suites, "verify_abstract_recursion", record)
    report = suites.abstract_recursion_suite(max_size, max_parts)
    assert report.params["checked"] == len(seen)
    return seen


def test_partition_generators_match_references(monkeypatch):
    for total in range(13):
        for parts in range(14):
            walk = list(_partitions_reference(total, parts))
            assert list(core._partitions(total, parts)) == walk
            assert list(core._partitions(total, parts, exact=True)) == [
                mu for mu in walk if len(mu) == parts]
    with pytest.raises(ValueError, match="nothing to check"):
        _abstract_suite_inputs(monkeypatch, 12, 0)
    for parts in range(1, 14):
        assert _abstract_suite_inputs(monkeypatch, 12, parts) == [
            (g, mu) for total in range(2, 13, 2)
            for mu in _compositions_reference(total, parts)
            for g in range(core.max_feasible_genus(mu) + 1)]


def test_partition_generators_leave_no_cycles(monkeypatch):
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            list(core._partitions(14, 14))
            list(core._partitions(14, 4, exact=True))
            _abstract_suite_inputs(monkeypatch, 10, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_full_free_energy_walks_the_partitions_once(monkeypatch):
    cache = CorrelatorCache()
    per_genus = CorrelatorCache()
    walks = []
    partitions = core._partitions

    def counted(total, max_parts, exact=False):
        walks.append(total)
        return partitions(total, max_parts, exact)

    def refuse(*args):
        raise AssertionError("free energy re-validates a partition")

    monkeypatch.setattr(core, "_partitions", counted)
    monkeypatch.setattr(core, "gluing_count", refuse)
    full = full_free_energy(12, cache)
    monkeypatch.undo()
    assert walks == [2, 4, 6, 8, 10, 12]
    terms = {}
    for g in genus_range(12):
        for m, c in free_energy(g, 12, per_genus).terms.items():
            terms[m.shift(gs_power=2 * g - 2)] = c
    assert full == core.CouplingSeries(terms, 12)
    # a miss derives the cell, the same cells as one walk per genus
    assert cache.table == per_genus.table


def test_full_free_energy_paranoid_rederives_every_hit(monkeypatch):
    cache = CorrelatorCache()
    plain = full_free_energy(10, cache)
    cache.paranoid = True
    derived = []
    derive = core._derive

    def counted(key, table):
        derived.append(key)
        return derive(key, table)

    monkeypatch.setattr(core, "_derive", counted)
    assert full_free_energy(10, cache) == plain
    monkeypatch.undo()
    looked_up = sum(1 for w in range(2, 11, 2) for _ in core._partitions(w, w))
    assert len(derived) == looked_up * len(genus_range(10))
    cache.table[(1, (4, 2))] += 1
    with pytest.raises(CacheMismatch):
        full_free_energy(10, cache)


# The recursion before its a <-> b fold, as it stood: every ordered pair of
# split terms, and the right factor skipped when the left one is 0.

def _desc(mu):
    return tuple(sorted(mu, reverse=True))


def _splits_reference(rest):
    splits = [(1, (), ())]
    for v in sorted(set(rest), reverse=True):
        k = rest.count(v)
        splits = [(w * math.comb(k, i), left + (v,) * i, right + (v,) * (k - i))
                  for w, left, right in splits for i in range(k + 1)]
    return [(w, left, sum(left), right) for w, left, right in splits]


def _compute_reference(g, mu, table):
    n = len(mu)
    mu1 = mu[0]
    rest = mu[1:]
    acc = 0

    for v in set(rest):
        m0 = mu1 + v - 2
        if m0 > 0:
            i = rest.index(v)
            key = (g, _desc((m0,) + rest[:i] + rest[i + 1:]))
            c = table.get(key)
            if c is None:
                c = yield key
            acc += rest.count(v) * v * c
        elif n == 2 and g == 0:
            acc += 1

    splits = _splits_reference(rest)
    for a in range(1, mu1 - 2):
        b = mu1 - 2 - a
        if g:
            key = (g - 1, _desc((a, b) + rest))
            c = table.get(key)
            if c is None:
                c = yield key
            acc += c
        for w, left_rest, left_sum, right_rest in splits:
            if (a + left_sum) % 2:
                continue
            left_mu = _desc((a,) + left_rest)
            right_mu = _desc((b,) + right_rest)
            for g1 in range(g + 1):
                key = (g1, left_mu)
                left = table.get(key)
                if left is None:
                    left = yield key
                if not left:
                    continue
                key = (g - g1, right_mu)
                right = table.get(key)
                if right is None:
                    right = yield key
                acc += w * left * right

    if mu1 > 2:
        key = (g, _desc((mu1 - 2,) + rest))
        c = table.get(key)
        if c is None:
            c = yield key
        acc += 2 * c
    elif n == 1 and g == 0 and mu1 == 2:
        acc += 1

    return acc


def _derive_reference(key, table):
    stack = [(key, _compute_reference(*key, table))]
    sent = None
    while True:
        cell, frame = stack[-1]
        try:
            child = frame.send(sent)
        except StopIteration as done:
            stack.pop()
            sent = table[cell] = done.value
            if not stack:
                return sent
        else:
            stack.append((child, _compute_reference(*child, table)))
            sent = None


def test_folded_recursion_matches_the_unfolded_reference():
    # repeated parts reach a = b with I = J, where a term is its own mirror
    keys = [(3, (6, 6, 6, 6)), (1, (5, 5, 3, 3, 2, 2)), (2, (8, 6, 6, 4)),
            (0, (4, 4, 4, 4, 4, 4)), (2, (10, 10))]
    keys += [(g, mu) for w in range(2, 15, 2) for mu in core._partitions(w, 5)
             for g in range(core.max_feasible_genus(mu) + 1)]
    for key in keys:
        want, got = {}, {}
        value = _derive_reference(key, want)
        assert core._derive(key, got) == value, key
        # the same cells, each with the same integer
        assert got == want, key


def test_split_memo_lives_for_one_derivation(monkeypatch):
    cache = CorrelatorCache()
    correlator(2, (8, 6, 6, 4), cache)
    assert core._split_memo == {}
    cache.paranoid = True
    cache.table[(2, (8, 6, 6, 4))] += 1
    with pytest.raises(CacheMismatch):
        correlator(2, (8, 6, 6, 4), cache)
    assert core._split_memo == {}
    # an exception in the middle of a derivation empties it too
    splits, calls = core._splits, []

    def failing(rest):
        calls.append(rest)
        if len(calls) == 5:
            raise RuntimeError("stop")
        return splits(rest)

    monkeypatch.setattr(core, "_splits", failing)
    with pytest.raises(RuntimeError):
        correlator(1, (6, 4, 4), CorrelatorCache())
    assert len(calls) == 5 and core._split_memo == {}


def test_cold_derivation_leaves_no_cycles():
    gc.collect()
    gc.disable()
    try:
        correlator(2, (8, 6, 6, 4), CorrelatorCache())
        assert gc.collect() == 0
    finally:
        gc.enable()


def carrell_chapuy(max_genus, max_n):
    """Q_g(n), rooted maps with n edges on the genus-g surface:
    (n+1)/6 Q_g(n) = 2(2n-1)/3 Q_g(n-1) + (2n-3)(2n-2)(2n-1)/12 Q_{g-1}(n-2)
                     + 1/2 sum_{k+l=n; k,l>=1} sum_{i+j=g} (2k-1)(2l-1) Q_i(k-1) Q_j(l-1),
    with Q_0(0) = 1 (S. R. Carrell and G. Chapuy, JCTA 133, 2015)."""
    q = {(g, 0): Fraction(int(g == 0)) for g in range(max_genus + 1)}
    for n in range(1, max_n + 1):
        for g in range(max_genus + 1):
            rhs = Fraction(2 * (2 * n - 1), 3) * q[(g, n - 1)]
            if g and n >= 2:
                rhs += Fraction((2 * n - 3) * (2 * n - 2) * (2 * n - 1), 12) * q[(g - 1, n - 2)]
            rhs += Fraction(1, 2) * sum(
                (2 * k - 1) * (2 * (n - k) - 1) * q[(i, k - 1)] * q[(g - i, n - k - 1)]
                for k in range(1, n) for i in range(g + 1))
            q[(g, n)] = rhs * 6 / (n + 1)
    return q


def test_carrell_chapuy_rooted_maps():
    # Q_g(n) = sum over mu |- 2n of 2n C_g(mu) / (prod(mu) prod_k m_k!): the
    # many-vertex cells at every genus, which Harer-Zagier and Tutte miss
    q = carrell_chapuy(3, 10)
    assert [q[(0, n)] for n in range(1, 5)] == [2, 9, 54, 378]
    assert [q[(1, n)] for n in range(2, 6)] == [1, 20, 307, 4280]
    assert [q[(2, n)] for n in range(4, 6)] == [21, 966]
    cache = CorrelatorCache()
    got = {(g, 0): q[(g, 0)] for g in range(4)}
    for n in range(1, 11):
        for g in range(4):
            got[(g, n)] = sum(
                Fraction(2 * n * core.gluing_count(g, mu, cache),
                         math.prod(mu) * math.prod(math.factorial(mu.count(k)) for k in set(mu)))
                for mu in core._partitions(2 * n, 2 * n))
    assert got == q
