"""Truncated multivariate tails in inverse powers x_i^-1, on flat integer keys.

An XSeries over (x_1, ..., x_n) maps the key (e_1, ..., e_n, t) to the
coefficient of t^t x_1^e_1 ... x_n^e_n: an ``int`` when integral, else an
exact ``Fraction``.  Tails (all exponents <= -1) are the common case; a
polynomial slot (exponents >= 0, for shifted objects like x^2/4) and log
slots c t^k log x, keyed (x, k), are also supported.  d/dx maps c log x to
c x^-1 exactly; two series that both carry log slots cannot be multiplied.

A product adds keys slot by slot, t included; as t >= 0, ``_inv_degree`` of
a key is that of its x-part.  ``TPoly`` appears only at the boundary: the
public constructor (any TPoly or rational coefficients) and the ``terms``,
``log_coeff`` and ``coeff`` views; derived series use the trusted ``_of``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add
from typing import Iterable, Mapping

from .exact import TPoly

Expo = tuple[int, ...]


def _inv_degree(exps: Expo) -> int:
    return sum(-e for e in exps if e < 0)


def _slots(c) -> dict:
    """t-power -> coefficient of a TPoly or a rational."""
    return _nonzero(dict(c.terms) if isinstance(c, TPoly) else {0: Fraction(c)})


def _nonzero(c: dict) -> dict:
    """c without its zeros, an integral Fraction turned into an int."""
    return {k: v if type(v) is int or v.denominator != 1 else v.numerator
            for k, v in c.items() if v}


def _summed(pairs) -> dict:
    out: dict = {}
    for k, v in pairs:
        out[k] = out.get(k, 0) + v
    return _nonzero(out)


def _cut(c: dict, trunc: int | None) -> dict:
    return c if trunc is None else {k: v for k, v in c.items() if _inv_degree(k) <= trunc}


def _polys(c: dict) -> dict:
    """key[:-1] -> TPoly of the t-slots key[-1] that share it."""
    polys: dict = {}
    for k, v in c.items():
        polys.setdefault(k[:-1], {})[k[-1]] = v
    return {e: TPoly(p) for e, p in polys.items()}


def _integral(c: dict) -> tuple[dict, int]:
    """(c * d, d) with d the least common denominator of c's values."""
    if all(type(v) is int for v in c.values()):
        return c, 1
    d = lcm(*[v.denominator for v in c.values()])
    return {k: v.numerator * (d // v.denominator) for k, v in c.items()}, d


def _accumulate(acc: dict, f: "XSeries", variables: tuple[str, ...],
                trunc: int | None = None) -> None:
    """Add f's terms into ``acc``, keyed over ``variables`` (a superset of
    f's) and cut at ``trunc`` unless f's own bound already lies within it."""
    n = len(variables)
    idx = [variables.index(v) for v in f.variables]
    check = trunc is not None and (f.trunc is None or f.trunc > trunc)
    moved = idx != list(range(n))
    for k, v in f._c.items():
        if moved:
            new = [0] * n + [k[-1]]
            for i, e in zip(idx, k):
                new[i] = e
            k = tuple(new)
        if not check or _inv_degree(k) <= trunc:
            acc[k] = acc.get(k, 0) + v


class XSeries:
    """Sparse exact series in several x-variables; see module docstring.

    ``trunc`` bounds the total inverse degree of stored terms (None = keep all).
    """

    __slots__ = ("variables", "trunc", "_c", "_log")

    def __init__(self, variables: Iterable[str],
                 terms: Mapping[Expo, TPoly] | None = None,
                 log_coeff: Mapping[str, TPoly] | None = None,
                 trunc: int | None = None):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variables")
        c = {}
        for e, value in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != len(vs):
                raise ValueError("exponent arity mismatch")
            if trunc is None or _inv_degree(e) <= trunc:
                c.update(((*e, t), v) for t, v in _slots(value).items())
        logs = {}
        for var, value in (log_coeff or {}).items():
            if var not in vs:
                raise ValueError(f"log slot for unknown variable {var}")
            logs.update(((var, t), v) for t, v in _slots(value).items())
        for name, value in zip(self.__slots__, (vs, trunc, c, logs)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, variables: tuple[str, ...], c: dict, logs: dict | None = None,
            trunc: int | None = None) -> "XSeries":
        """Trusted constructor: keys fit ``variables``, values are nonzero and
        within ``trunc``.  The dicts are kept, not copied."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (variables, trunc, c, logs or {})):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, *a):
        raise AttributeError("XSeries is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str], trunc: int | None = None) -> "XSeries":
        return XSeries(variables, {}, None, trunc)

    @staticmethod
    def one(variables: Iterable[str], trunc: int | None = None) -> "XSeries":
        vs = tuple(variables)
        return XSeries(vs, {(0,) * len(vs): 1}, None, trunc)

    @staticmethod
    def term(variables: Iterable[str], exps: Expo, coeff, trunc: int | None = None) -> "XSeries":
        return XSeries(variables, {tuple(exps): coeff}, None, trunc)

    @property
    def terms(self) -> dict[Expo, TPoly]:
        """The coefficient TPoly of each x-exponent; a new dict per access."""
        return _polys(self._c)

    @property
    def log_coeff(self) -> dict[str, TPoly]:
        """The coefficient TPoly of each log slot; a new dict per access."""
        return {var: p for (var,), p in _polys(self._log).items()}

    def coeff(self, exps: Expo) -> TPoly:
        e = tuple(exps)
        return TPoly({k[-1]: v for k, v in self._c.items() if k[:-1] == e})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c and not self._log

    def has_log(self) -> bool:
        return bool(self._log)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XSeries):
            return NotImplemented
        return (self.variables == other.variables and self._c == other._c
                and self._log == other._log)

    # -- variable plumbing -------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "XSeries":
        """Rename variables (bijectively on the ones present)."""
        vs = tuple(mapping.get(v, v) for v in self.variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variables")
        logs = {(mapping.get(v, v), t): c for (v, t), c in self._log.items()}
        return XSeries._of(vs, self._c, logs, self.trunc)

    def extend_vars(self, variables: Iterable[str]) -> "XSeries":
        """Re-express over a superset of variables (new ones get exponent 0)."""
        vs = tuple(variables)
        if vs == self.variables:
            return self
        missing = [v for v in self.variables if v not in vs]
        if missing:
            raise ValueError(f"cannot drop variable {missing[0]}")
        c: dict = {}
        _accumulate(c, self, vs)
        return XSeries._of(vs, c, self._log, self.trunc)

    @staticmethod
    def _aligned(a: "XSeries", b: "XSeries") -> tuple["XSeries", "XSeries"]:
        if a.variables == b.variables:
            return a, b
        vs = tuple(dict.fromkeys(a.variables + b.variables))
        return a.extend_vars(vs), b.extend_vars(vs)

    @staticmethod
    def _min_trunc(a: int | None, b: int | None) -> int | None:
        return b if a is None else a if b is None else min(a, b)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "XSeries") -> "XSeries":
        if not isinstance(other, XSeries):
            return NotImplemented
        vs = tuple(dict.fromkeys(self.variables + other.variables))
        trunc = self._min_trunc(self.trunc, other.trunc)
        c: dict = {}
        _accumulate(c, self, vs, trunc)
        _accumulate(c, other, vs, trunc)
        logs = _summed((*self._log.items(), *other._log.items()))
        return XSeries._of(vs, _nonzero(c), logs, trunc)

    def __neg__(self) -> "XSeries":
        return self.scale(-1)

    def __sub__(self, other: "XSeries") -> "XSeries":
        return self + (-other) if isinstance(other, XSeries) else NotImplemented

    def scale(self, c) -> "XSeries":
        slots = _slots(c).items()
        c, logs = (_summed(((*k[:-1], k[-1] + t), v * x) for k, v in part.items()
                           for t, x in slots) for part in (self._c, self._log))
        return XSeries._of(self.variables, c, logs, self.trunc)

    def __mul__(self, other) -> "XSeries":
        if isinstance(other, (int, Fraction, TPoly)):
            return self.scale(other)
        if not isinstance(other, XSeries):
            return NotImplemented
        if self.has_log() or other.has_log():
            raise ValueError("cannot multiply series carrying log slots")
        a, b = XSeries._aligned(self, other)
        trunc = self._min_trunc(a.trunc, b.trunc)
        # the products are taken on ints, over the common denominator d
        left, den_a = _integral(a._c)
        right, den_b = _integral(b._c)
        # b's terms grouped by -sum(e) of the x-part, lowest first: -sum(e) is
        # additive and bounds _inv_degree from below, equal with no positive
        # exponent, so each e1 stops at the first group past the truncation.
        groups: dict[int, list] = {}
        for k2, c2 in right.items():
            groups.setdefault(k2[-1] - sum(k2), []).append((k2, c2))
        by_degree = sorted(groups.items())
        check = trunc is not None and any(
            max(k[:-1], default=0) > 0 for k in chain(left, right))
        out: dict = {}
        for k1, c1 in left.items():
            room = None if trunc is None else trunc + sum(k1) - k1[-1]
            for d2, group in by_degree:
                if room is not None and d2 > room:
                    break
                for k2, c2 in group:
                    # built at its final size: tuple() of a map grows and
                    # shrinks it, and CPython's tuple free lists hoard those
                    k = (*map(add, k1, k2),)
                    if check and _inv_degree(k) > trunc:
                        continue
                    out[k] = out.get(k, 0) + c1 * c2
        d = den_a * den_b
        out = _nonzero(out if d == 1 else {k: Fraction(v, d) for k, v in out.items()})
        return XSeries._of(a.variables, out, None, trunc)

    __rmul__ = __mul__

    def with_trunc(self, trunc: int | None) -> "XSeries":
        within = self.trunc is not None and trunc is not None and self.trunc <= trunc
        c = self._c if within else _cut(self._c, trunc)
        return XSeries._of(self.variables, c, self._log, trunc)

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "XSeries":
        """d/d var; the log slot c*log(var) contributes c*var^-1."""
        i = self.variables.index(var)
        unit = tuple(-1 if j == i else 0 for j in range(len(self.variables)))
        out = _summed([*(((*k[:i], k[i] - 1, *k[i + 1:]), v * k[i])
                         for k, v in self._c.items() if k[i]),
                       *(((*unit, t), v) for (w, t), v in self._log.items() if w == var)])
        logs = {k: v for k, v in self._log.items() if k[0] != var}
        trunc = None if self.trunc is None else self.trunc + 1
        return XSeries._of(self.variables, _cut(out, trunc), logs, trunc)


def xseries_invert(f: XSeries, trunc: int | None = None) -> XSeries:
    """Invert f = 1 + (pure tail in one variable) up to the truncation."""
    if f.has_log():
        raise ValueError("cannot invert a series with log slots")
    zero = (0,) * len(f.variables)
    one = (*zero, 0)
    tail = [k[:-1] for k in f._c if k != one]
    if f._c.get(one) != 1 or zero in tail:
        raise ValueError("constant term must be 1")
    if any(x > 0 for e in tail for x in e):
        raise ValueError("not a pure tail")
    if len({i for e in tail for i, x in enumerate(e) if x}) > 1:
        raise ValueError("tail must involve a single variable")
    trunc = f.trunc if trunc is None else trunc
    if trunc is None:
        raise ValueError("a truncation is required to invert")
    minus_h = XSeries._of(f.variables, _cut({k: -v for k, v in f._c.items() if k != one},
                                            trunc), None, trunc)
    power = XSeries.one(f.variables, trunc)
    powers = [power._c.items()]
    while not power.is_zero():
        power = power * minus_h
        powers.append(power._c.items())
    return XSeries._of(f.variables, _summed(chain.from_iterable(powers)), None, trunc)


def xseries_diag(f: XSeries, u: str, v: str, x: str) -> XSeries:
    """Substitute u = v = x on a tail and multiply by x^-1.

    The substitution is the exact b -> c limit on polynomial tails; a log slot
    in u or v has no such limit in this representation and is rejected.
    """
    if any(w in (u, v) for w, _ in f._log):
        raise ValueError("limit undefined on log slots")
    iu, iv = f.variables.index(u), f.variables.index(v)
    keep = [i for i in range(len(f.variables)) if i not in (iu, iv)]
    new_vars = tuple(f.variables[i] for i in keep)
    if x not in new_vars:
        new_vars = (x,) + new_vars
        keep = [None] + keep
    ix = new_vars.index(x)
    out: dict = {}
    for k, c in f._c.items():
        new = [0 if i is None else k[i] for i in keep] + [k[-1]]
        new[ix] += k[iu] + k[iv] - 1
        key = tuple(new)
        out[key] = out.get(key, 0) + c
    trunc = None if f.trunc is None else f.trunc + 1
    return XSeries._of(new_vars, _nonzero(out), f._log, trunc)
