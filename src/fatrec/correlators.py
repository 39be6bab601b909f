"""Hermitian one-matrix-model correlators via the quadratic recursion.

The recursion determines F_g^mu from the initial value F_0^(0) = t by
induction on |mu|; every value is a single t-monomial (or zero) by the fat
selection rule, with t-power 2 - 2g - n + |mu|/2.  The core works on the
integers C_g(mu) = prod(mu) * F_g^mu, which count labelled gluings; with mu
sorted descending, mu1 its first part and rest the others,

    C_g(mu) = sum_{v in rest} v * C_g(mu1 + v - 2, rest - v)
            + sum_{a+b=mu1-2, a<=b} e_ab [ C_{g-1}(a, b, rest)
                + sum_{I+J=rest, g1} w_I C_{g1}(a, I) C_{g-g1}(b, J) ]
            + 2 C_g(mu1 - 2, rest) + [mu = (1, 1) or (2), g = 0],

where the splits I+J of rest run over sub-multisets, w_I = prod C(k_v, i_v)
counts the index subsets that give I, and e_ab is 2 for a < b and 1 for
a = b.  Summed over every a + b = mu1 - 2, each term would appear twice, as
(a, I, g1) and as its mirror (b, J, g - g1), with w_I = w_J: the fold is
exact.  Both factors of a term are read even when the left one is 0, so the
folded sum derives the same cells as the unfolded one, where each right
factor was the left factor of its mirror.
``_compute`` derives one cell and ``_derive`` runs those derivations on an
explicit stack, so depth is not bounded by Python's recursion limit; the
splits of each rest are kept in ``_split_memo`` for one top-level
``_derive`` and dropped when it ends, also on an error.
``CorrelatorCache.table`` holds these integers; ``gluing_count`` reads one
and ``correlator`` builds its TPoly only at its return.  A persistent JSON
cache keyed by (g, sorted mu) makes the superpolynomial recursion cheap
across runs.
"""

from __future__ import annotations

import json
import os
import re
import time
from fractions import Fraction
from math import comb, gcd, prod
from typing import Iterable

from .exact import CouplingSeries, TPoly, series_exp

CACHE_ENV = "FATREC_CACHE"
DEFAULT_CACHE_PATH = "./fatrec-cache.json"
CACHE_VERSION = 1


class CacheError(Exception):
    """Raised when a persistent cache cannot be loaded."""


class CacheConflict(CacheError):
    """Raised by ``save`` when the file holds another value for a cell."""


class CacheMismatch(CacheError, AssertionError):
    """Raised by ``--paranoid`` when a cached cell differs from its re-derivation."""


# the canonical "p" and "p/q" coefficient forms, parsed without Fraction
_COEFF = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _desc(mu: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(mu, reverse=True))


class CorrelatorCache:
    """In-memory table of the integers C_g(mu), with optional JSON persistence.

    ``table`` maps (g, mu sorted descending) to C_g(mu) = prod(mu) * F_g^mu;
    ``correlator`` turns a cell into the TPoly F_g^mu when it returns it.
    File format: {"version": 1, "entries": [{"g", "mu", "t_power", "coeff"}]}
    with entries sorted by (g, mu) and coeff = F_g^mu's coefficient; a zero
    correlator is stored with t_power 0 and coeff "0".  ``stored`` is the
    table's size when the file was last read or written (None before that),
    so a caller can tell whether cells were added since.  ``save`` merges in
    the cells another process wrote since then; ``seen`` is the (inode,
    size, mtime) of the file as last read or written here, so a single
    writer saves without reading the file again.
    """

    def __init__(self, path: str | None = None, paranoid: bool = False):
        self.table: dict[tuple[int, tuple[int, ...]], int] = {}
        self.path = path
        self.paranoid = paranoid
        self.stored: int | None = None
        self.seen: tuple[int, int, int] | None = None

    # -- persistence --------------------------------------------------------

    @staticmethod
    def resolve_path(path: str | None = None) -> str:
        if path:
            return path
        return os.environ.get(CACHE_ENV, DEFAULT_CACHE_PATH)

    def load(self) -> None:
        if not self.path or not os.path.exists(self.path):
            return
        cells, self.seen = self._read()
        self.table.update(cells)
        self.stored = len(self.table)

    def _read(self) -> tuple[dict, tuple[int, int, int]]:
        """The validated cells of the file, and the file's identity as read."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
                seen = _identity(os.fstat(fh.fileno()))
        except (json.JSONDecodeError, OSError) as exc:
            raise CacheError(f"cannot read cache {self.path}: {exc}") from exc
        if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
            raise CacheError(f"cache version mismatch in {self.path}")
        cells = {}
        for entry in data.get("entries", []):
            try:
                g = int(entry["g"])
                mu = tuple(map(int, entry["mu"]))
                value = _entry_count(g, mu, entry)
            except (KeyError, ValueError, TypeError) as exc:
                raise CacheError(f"malformed cache entry: {entry!r}") from exc
            cells[(g, _desc(mu))] = value
        return cells, seen

    def serialize(self) -> str:
        entries = []
        for (g, mu) in sorted(self.table):
            value, size = self.table[(g, mu)], prod(mu)
            d = gcd(value, size)  # size when value is 0
            coeff = f"{value // d}" if d == size else f"{value // d}/{size // d}"
            entries.append({"g": g, "mu": list(mu), "coeff": coeff,
                            "t_power": _t_power(g, mu) if value else 0})
        return json.dumps({"version": CACHE_VERSION, "entries": entries},
                          separators=(",", ":"), sort_keys=True)

    def save(self) -> None:
        """Write the table, with the file's cells it lacks merged in first.

        The file is read again, under the lock, only when it is not the one
        last read or written here.  A cell the file holds with another value
        raises CacheConflict, and nothing is written.
        """
        if not self.path:
            return
        lock = self.path + ".lock"
        _acquire(lock)
        try:
            self._merge()
            tmp = f"{self.path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.serialize())
            self.seen = _identity(os.stat(tmp))
            os.replace(tmp, self.path)
            self.stored = len(self.table)
        finally:
            os.unlink(lock)

    def _merge(self) -> None:
        try:
            if _identity(os.stat(self.path)) == self.seen:
                return
        except FileNotFoundError:
            return
        cells, _ = self._read()
        for key, value in cells.items():
            if self.table.get(key, value) != value:
                raise CacheConflict(f"cache {self.path} holds another value "
                                    f"at {key}")
        for key, value in cells.items():
            self.table.setdefault(key, value)


def _identity(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_ino, st.st_size, st.st_mtime_ns


# How long a save waits for a live process to release the lock, and how
# often it looks: a save holds the lock for a few ms, so processes that
# finish together all land their cells.
_LOCK_WAIT_S = 2.0
_LOCK_POLL_S = 0.005


def _acquire(lock: str) -> None:
    """Take ``lock``, a file that holds this process's PID from the start.

    The PID is written to a file of its own, which is then hard-linked to
    ``lock``: the link fails if the lock exists, and a lock never exists
    without its PID.  A lock that is empty or whose PID no longer exists was
    left by a killed run: it is unlinked and the link is tried again at
    once, as it is when the lock was released meanwhile.  Otherwise the
    lock is polled, and whatever it holds, CacheError is raised once
    _LOCK_WAIT_S has passed.
    """
    own = f"{lock}.{os.getpid()}"
    with open(own, "w", encoding="ascii") as fh:
        fh.write(str(os.getpid()))
    deadline = time.monotonic() + _LOCK_WAIT_S
    retry_now = False
    try:
        while True:
            try:
                os.link(own, lock)
                return
            except FileExistsError:
                # at once after a break, but not twice in a row: a lock
                # that never opens (a dangling symlink) reads as gone
                retry_now = _break_if_stale(lock) and not retry_now
            if time.monotonic() > deadline:
                raise CacheError(f"cache is locked: {lock}")
            if not retry_now:
                time.sleep(_LOCK_POLL_S)
    finally:
        os.unlink(own)


def _break_if_stale(lock: str) -> bool:
    """Unlink ``lock`` if its holder is dead; True when it is gone.

    The breaker holds an flock on the lock it judged and unlinks ``lock``
    only while that name still leads to it.  No one else unlinks that file
    meanwhile (its holder is dead, any other breaker waits for the flock),
    so a lock taken since by a live process is never removed.
    """
    import fcntl  # here, as only a contended save needs it

    try:
        fh = open(lock, encoding="ascii")
    except FileNotFoundError:
        return True  # released meanwhile
    with fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False  # another process is breaking it
        if not _holder_is_dead(fh):
            return False
        try:
            if os.path.samestat(os.fstat(fh.fileno()), os.stat(lock)):
                os.unlink(lock)
        except FileNotFoundError:
            pass
        return True


def _holder_is_dead(fh) -> bool:
    """True when the open lock is empty or names a PID that no longer exists.

    No holder leaves its lock empty, so an empty one is stale.
    """
    try:
        text = fh.read()
        if not text:
            return True
        pid = int(text)
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError):  # unreadable, not a PID, or another user's process
        pass
    return False


_session_cache = CorrelatorCache()


def correlator(g: int, mu, cache: CorrelatorCache | None = None) -> TPoly:
    """F_g^mu(t), computed by the quadratic recursion with memoization.

    mu is a vector of positive valences, or the singleton (0).  Negative
    genus gives zero; odd |mu| gives zero.
    """
    mu = tuple(map(int, mu))
    if mu == (0,) and g >= 0:
        return TPoly.t_power(1) if g == 0 else TPoly.zero()
    value = gluing_count(g, mu, cache)
    if not value:
        return TPoly.zero()
    return TPoly.t_power(_t_power(g, mu), Fraction(value, prod(mu)))


def gluing_count(g: int, mu, cache: CorrelatorCache | None = None) -> int:
    """C_g(mu) = prod(mu) * F_g^mu as an int: the labelled gluings of mu.

    The integer cell behind ``correlator``; mu is a vector of positive
    valences.  Negative genus and odd |mu| give 0.
    """
    if cache is None:
        cache = _session_cache
    mu = tuple(map(int, mu))
    if not mu:
        raise ValueError("mu must have at least one vertex")
    if g < 0:
        return 0
    if any(m <= 0 for m in mu):
        raise ValueError("valences must be positive (or the single (0))")
    if sum(mu) % 2:
        return 0
    return _cell(g, _desc(mu), cache)


def _cell(g: int, mu: tuple[int, ...], cache: CorrelatorCache) -> int:
    """C_g(mu) of a valid key: g >= 0, mu positive and descending, |mu| even.

    A miss derives the cell; with ``cache.paranoid`` a hit is re-derived from
    its children and must agree.
    """
    key = (g, mu)
    hit = cache.table.get(key)
    if hit is None:
        return _derive(key, cache.table)
    if cache.paranoid and _derive(key, cache.table) != hit:
        raise CacheMismatch(f"cache mismatch at {key}")
    return hit


def _t_power(g: int, mu: tuple[int, ...]) -> int:
    """Selection rule: the t-power of F_g^mu is its face count 2-2g-n+|mu|/2."""
    return 2 - 2 * g - len(mu) + sum(mu) // 2


def max_feasible_genus(mu) -> int:
    """Largest genus allowed by the selection rule t-power >= 1."""
    return max(-1, (_t_power(0, mu) - 1) // 2)


def _entry_count(g: int, mu: tuple[int, ...], entry: dict) -> int:
    """C_g(mu) = prod(mu) * coeff of a cache file entry, as an int.

    The canonical "p" and "p/q" forms are parsed with int; every other coeff,
    and a zero denominator, is parsed (or refused) by Fraction.
    Raises ValueError unless the valences are positive and a nonzero entry
    obeys the selection rule with an integral C_g(mu).
    """
    coeff = entry["coeff"]
    match = _COEFF.fullmatch(coeff) if isinstance(coeff, str) else None
    num, den = (int(match[1]), int(match[2] or 1)) if match else (0, 0)
    if not den:
        num, den = Fraction(coeff).as_integer_ratio()
    if num:
        t_power = int(entry["t_power"])
    if not mu or min(mu) <= 0:
        raise ValueError(f"non-positive valence in {list(mu)}")
    if not num:
        return 0
    if t_power < 0 or sum(mu) % 2 or t_power != _t_power(g, mu):
        raise ValueError(f"t^{t_power} breaks the selection rule")
    value, remainder = divmod(num * prod(mu), den)
    if remainder:
        raise ValueError(f"prod(mu) * {coeff} is not an integer")
    return value


def _derive(key: tuple[int, tuple[int, ...]],
            table: dict[tuple[int, tuple[int, ...]], int]) -> int:
    """Derive C_g(mu) of the cell ``key`` from its children.

    Cells missing from ``table`` are derived first, on an explicit stack of
    ``_compute`` frames; every derived cell, ``key`` included, is stored in
    ``table``.  Other cells already in ``table`` are read, not derived.
    """
    stack = [(key, _compute(*key, table))]
    sent = None
    try:
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
                stack.append((child, _compute(*child, table)))
                sent = None
    finally:
        _split_memo.clear()


# _splits(rest) by rest, filled by ``_compute`` and emptied when the
# top-level ``_derive`` ends, so that nothing outlives one derivation
_split_memo: dict[tuple[int, ...], list] = {}


def _splits(rest: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int, tuple[int, ...]]]:
    """(weight, I, |I|, J) for each sub-multiset I of ``rest`` (descending).

    J is the complement; the weight prod C(k_v, i_v) counts the index
    subsets that give I.
    """
    splits = [(1, (), ())]
    for v in sorted(set(rest), reverse=True):
        k = rest.count(v)
        splits = [(w * comb(k, i), left + (v,) * i, right + (v,) * (k - i))
                  for w, left, right in splits for i in range(k + 1)]
    return [(w, left, sum(left), right) for w, left, right in splits]


def _compute(g: int, mu: tuple[int, ...], table: dict):
    """Generator deriving C_g(mu), mu sorted descending, from its children.

    Each child key missing from ``table`` is yielded, and its value must be
    sent back; the generator returns C_g(mu).  This is the recursion
    multiplied through by prod(mu), so every term is an integer.
    """
    n = len(mu)
    mu1 = mu[0]
    rest = mu[1:]
    acc = 0

    # contract an edge from the first vertex to a vertex of valence v
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
            # contracting the dumbbell leaves the plain vertex, weight t
            acc += 1

    # a <= b = mu1 - 2 - a; the terms with a < b stand for their mirrors too
    half = mu1 // 2 - 1
    if g:
        for a in range(1, half + 1):
            b = mu1 - 2 - a
            key = (g - 1, tuple(sorted((a, b, *rest), reverse=True)))
            c = table.get(key)
            if c is None:
                c = yield key
            acc += 2 * c if a < b else c

    splits = _split_memo.get(rest)
    if splits is None:
        splits = _split_memo[rest] = _splits(rest)
    for w, left_rest, left_sum, right_rest in splits:
        # a + |I| is even, and then so is b + |J|
        for a in range(2 - left_sum % 2, half + 1, 2):
            b = mu1 - 2 - a
            left_mu = tuple(sorted((a, *left_rest), reverse=True))
            right_mu = tuple(sorted((b, *right_rest), reverse=True))
            term = 0
            for g1 in range(g + 1):
                # the right factor is read even when left is 0: it is the
                # left factor of the mirror term, so its cell is still derived
                key = (g1, left_mu)
                left = table.get(key)
                if left is None:
                    left = yield key
                key = (g - g1, right_mu)
                right = table.get(key)
                if right is None:
                    right = yield key
                term += left * right
            acc += (2 * w if a < b else w) * term

    if mu1 > 2:
        key = (g, _desc((mu1 - 2,) + rest))
        c = table.get(key)
        if c is None:
            c = yield key
        acc += 2 * c
    elif n == 1 and g == 0 and mu1 == 2:
        acc += 1

    return acc


def connected_correlator(g: int, mu, cache: CorrelatorCache | None = None) -> TPoly:
    """<p_mu1 ... p_mun>_g^c = prod(mu) * F_g^mu."""
    mu = tuple(map(int, mu))
    return Fraction(prod(mu)) * correlator(g, mu, cache)


def _partitions(total: int, max_parts: int, exact: bool = False):
    """Partitions of ``total`` into at most ``max_parts`` parts, descending;
    with ``exact``, into exactly ``max_parts`` parts.

    Largest first part first, walked on an explicit stack; a next part p is
    tried only when the rest fits, remaining <= p * (parts left).
    """
    stack = [(total, total, ())]
    while stack:
        remaining, largest, prefix = stack.pop()
        left = max_parts - len(prefix)
        if not remaining:
            if not (exact and left):
                yield prefix
        elif left > 0:
            top = min(largest, remaining - left + 1 if exact else remaining)
            for part in range(-(-remaining // left), top + 1):
                stack.append((remaining - part, part, prefix + (part,)))


def _labelled_cells(genera, max_weight: int, cache: CorrelatorCache | None):
    """(g, mu, C_g(mu)) for every nonzero cell with g in ``genera`` and
    |mu| <= max_weight, walking the partitions once."""
    if cache is None:
        cache = _session_cache
    for w in range(2, max_weight + 1, 2):
        for mu in _partitions(w, w):
            for g in genera:
                value = _cell(g, mu, cache)
                if value:
                    yield g, mu, value


def free_energy(g: int, max_weight: int, cache: CorrelatorCache | None = None) -> CouplingSeries:
    """Genus-g free energy: sum over unordered mu of F_g^mu g_mu / sym.

    The 1/n! over ordered tuples collapses to 1/prod(multiplicities!) per
    multiset, so the labelled coefficient of g_mu is C_g(mu) itself, read
    from the cache table; truncated at total coupling weight ``max_weight``.
    """
    genera = (g,) if g >= 0 else ()
    return CouplingSeries._of({(mu[::-1], _t_power(h, mu), 0): value
                               for h, mu, value in _labelled_cells(genera, max_weight, cache)},
                              max_weight)


def genus_range(max_weight: int) -> range:
    """Genera that can contribute at coupling weight <= max_weight.

    The selection rule t-power = 2 - 2g - n + |mu|/2 >= 1 with n >= 1 forces
    2g <= |mu|/2 <= max_weight/2.
    """
    return range(0, max_weight // 4 + 1)


def full_free_energy(max_weight: int, cache: CorrelatorCache | None = None) -> CouplingSeries:
    """Sum over genus of gs^(2g-2) * free_energy(g)."""
    genera = genus_range(max_weight)
    return CouplingSeries._of({(mu[::-1], _t_power(g, mu), 2 * g - 2): value
                               for g, mu, value in _labelled_cells(genera, max_weight, cache)},
                              max_weight)


def partition_function(max_weight: int, cache: CorrelatorCache | None = None) -> CouplingSeries:
    """Z = exp(sum_g gs^(2g-2) F_g), truncated at the weight bound."""
    return series_exp(full_free_energy(max_weight, cache))
