"""Truncated multivariate tails in inverse powers x_i^-1 with TPoly coefficients.

An XSeries stores sparse Laurent terms over an ordered list of variables.
Tails (all exponents <= -1) are the common case; a polynomial slot (non-negative
exponents, used for shifted objects like -x/2 or x^2/4) and one log-slot
coefficient per variable (used only by the averaged S-functions) are also
supported.  Differentiation maps c*log x to c*x^-1 exactly; two series that
both carry log slots cannot be multiplied.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .exact import TPoly

Expo = tuple[int, ...]


def _inv_degree(exps: Expo) -> int:
    return sum(-e for e in exps if e < 0)


class XSeries:
    """Sparse exact series in several x-variables; see module docstring.

    ``trunc`` bounds the total inverse degree of stored terms (None = keep all).
    """

    __slots__ = ("variables", "terms", "log_coeff", "trunc")

    def __init__(self, variables: Iterable[str],
                 terms: Mapping[Expo, TPoly] | None = None,
                 log_coeff: Mapping[str, TPoly] | None = None,
                 trunc: int | None = None):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variables")
        clean: dict[Expo, TPoly] = {}
        if terms:
            for e, c in terms.items():
                e = tuple(int(x) for x in e)
                if len(e) != len(vs):
                    raise ValueError("exponent arity mismatch")
                if not isinstance(c, TPoly):
                    c = TPoly.const(c)
                if c.is_zero():
                    continue
                if trunc is not None and _inv_degree(e) > trunc:
                    continue
                clean[e] = c
        logs: dict[str, TPoly] = {}
        if log_coeff:
            for v, c in log_coeff.items():
                if v not in vs:
                    raise ValueError(f"log slot for unknown variable {v}")
                if not isinstance(c, TPoly):
                    c = TPoly.const(c)
                if not c.is_zero():
                    logs[v] = c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "log_coeff", logs)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):
        raise AttributeError("XSeries is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str], trunc: int | None = None) -> "XSeries":
        return XSeries(variables, {}, None, trunc)

    @staticmethod
    def one(variables: Iterable[str], trunc: int | None = None) -> "XSeries":
        vs = tuple(variables)
        return XSeries(vs, {(0,) * len(vs): TPoly.const(1)}, None, trunc)

    @staticmethod
    def term(variables: Iterable[str], exps: Expo, coeff, trunc: int | None = None) -> "XSeries":
        return XSeries(variables, {tuple(exps): coeff}, None, trunc)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms and not self.log_coeff

    def has_log(self) -> bool:
        return bool(self.log_coeff)

    def coeff(self, exps: Expo) -> TPoly:
        return self.terms.get(tuple(exps), TPoly.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, XSeries):
            return NotImplemented
        return (self.variables == other.variables and self.terms == other.terms
                and self.log_coeff == other.log_coeff)

    # -- variable plumbing -------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "XSeries":
        """Rename variables (bijectively on the ones present)."""
        vs = tuple(mapping.get(v, v) for v in self.variables)
        return XSeries(vs, self.terms, {mapping.get(v, v): c for v, c in self.log_coeff.items()},
                       self.trunc)

    def extend_vars(self, variables: Iterable[str]) -> "XSeries":
        """Re-express over a superset of variables (new ones get exponent 0)."""
        vs = tuple(variables)
        pos = {v: i for i, v in enumerate(vs)}
        for v in self.variables:
            if v not in pos:
                raise ValueError(f"cannot drop variable {v}")
        idx = [pos[v] for v in self.variables]
        out: dict[Expo, TPoly] = {}
        for e, c in self.terms.items():
            new = [0] * len(vs)
            for i, ei in zip(idx, e):
                new[i] = ei
            out[tuple(new)] = c
        return XSeries(vs, out, dict(self.log_coeff), self.trunc)

    @staticmethod
    def _aligned(a: "XSeries", b: "XSeries") -> tuple["XSeries", "XSeries"]:
        if a.variables == b.variables:
            return a, b
        vs = tuple(dict.fromkeys(a.variables + b.variables))
        return a.extend_vars(vs), b.extend_vars(vs)

    @staticmethod
    def _min_trunc(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "XSeries") -> "XSeries":
        a, b = XSeries._aligned(self, other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            s = out.get(e, TPoly.zero()) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        logs = dict(a.log_coeff)
        for v, c in b.log_coeff.items():
            s = logs.get(v, TPoly.zero()) + c
            if s.is_zero():
                logs.pop(v, None)
            else:
                logs[v] = s
        return XSeries(a.variables, out, logs, self._min_trunc(a.trunc, b.trunc))

    def __neg__(self) -> "XSeries":
        return XSeries(self.variables, {e: -c for e, c in self.terms.items()},
                       {v: -c for v, c in self.log_coeff.items()}, self.trunc)

    def __sub__(self, other: "XSeries") -> "XSeries":
        return self + (-other)

    def scale(self, c) -> "XSeries":
        if not isinstance(c, TPoly):
            c = TPoly.const(c)
        return XSeries(self.variables, {e: k * c for e, k in self.terms.items()},
                       {v: k * c for v, k in self.log_coeff.items()}, self.trunc)

    def __mul__(self, other) -> "XSeries":
        if isinstance(other, (int, Fraction, TPoly)):
            return self.scale(other)
        if self.has_log() or other.has_log():
            raise ValueError("cannot multiply series carrying log slots")
        a, b = XSeries._aligned(self, other)
        trunc = self._min_trunc(a.trunc, b.trunc)
        # b's terms grouped by -sum(e), lowest first.  -sum(e) is additive and
        # bounds _inv_degree from below (equal on tails), so each e1 stops at
        # the first group whose products all lie past the truncation.
        groups: dict[int, list[tuple[Expo, TPoly]]] = {}
        for e2, c2 in b.terms.items():
            groups.setdefault(-sum(e2), []).append((e2, c2))
        by_degree = sorted(groups.items())
        out: dict[Expo, TPoly] = {}
        for e1, c1 in a.terms.items():
            room = None if trunc is None else trunc + sum(e1)
            for d2, group in by_degree:
                if room is not None and d2 > room:
                    break
                for e2, c2 in group:
                    e = tuple(x + y for x, y in zip(e1, e2))
                    if trunc is not None and _inv_degree(e) > trunc:
                        continue
                    s = out.get(e, TPoly.zero()) + c1 * c2
                    if s.is_zero():
                        out.pop(e, None)
                    else:
                        out[e] = s
        return XSeries(a.variables, out, None, trunc)

    __rmul__ = __mul__

    def with_trunc(self, trunc: int | None) -> "XSeries":
        return XSeries(self.variables, self.terms, self.log_coeff, trunc)

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "XSeries":
        """d/d var; the log slot c*log(var) contributes c*var^-1."""
        i = self.variables.index(var)
        out: dict[Expo, TPoly] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            s = out.get(e2, TPoly.zero()) + c * Fraction(e[i])
            if s.is_zero():
                out.pop(e2, None)
            else:
                out[e2] = s
        logs = dict(self.log_coeff)
        c = logs.pop(var, None)
        if c is not None:
            e2 = tuple(-1 if j == i else 0 for j in range(len(self.variables)))
            s = out.get(e2, TPoly.zero()) + c
            if s.is_zero():
                out.pop(e2, None)
            else:
                out[e2] = s
        trunc = None if self.trunc is None else self.trunc + 1
        return XSeries(self.variables, out, logs, trunc)


def xseries_invert(f: XSeries, trunc: int | None = None) -> XSeries:
    """Invert f = 1 + (pure tail in one variable) up to the truncation."""
    if f.has_log():
        raise ValueError("cannot invert a series with log slots")
    n = len(f.variables)
    zero = (0,) * n
    if f.coeff(zero) != TPoly.const(1):
        raise ValueError("constant term must be 1")
    active = set()
    for e in f.terms:
        if e == zero:
            continue
        if any(x > 0 for x in e):
            raise ValueError("not a pure tail")
        for i, x in enumerate(e):
            if x:
                active.add(i)
    if len(active) > 1:
        raise ValueError("tail must involve a single variable")
    if trunc is None:
        trunc = f.trunc
    if trunc is None:
        raise ValueError("a truncation is required to invert")
    h = (f - XSeries.one(f.variables)).with_trunc(trunc)
    out = XSeries.one(f.variables, trunc)
    power = XSeries.one(f.variables, trunc)
    while True:
        power = power * (-h)
        if power.is_zero():
            break
        out = out + power
    return out


def xseries_diag(f: XSeries, u: str, v: str, x: str) -> XSeries:
    """Substitute u = v = x on a tail and multiply by x^-1.

    The substitution is the exact b -> c limit on polynomial tails; a log slot
    in u or v has no such limit in this representation and is rejected.
    """
    if u in f.log_coeff or v in f.log_coeff:
        raise ValueError("limit undefined on log slots")
    iu = f.variables.index(u)
    iv = f.variables.index(v)
    keep = [i for i in range(len(f.variables)) if i not in (iu, iv)]
    new_vars = tuple(f.variables[i] for i in keep)
    if x not in new_vars:
        new_vars = (x,) + new_vars
        keep = [None] + keep
    ix = new_vars.index(x)
    out: dict[Expo, TPoly] = {}
    for e, c in f.terms.items():
        new_e = [0 if i is None else e[i] for i in keep]
        new_e[ix] += e[iu] + e[iv] - 1
        key = tuple(new_e)
        s = out.get(key, TPoly.zero()) + c
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    trunc = None if f.trunc is None else f.trunc + 1
    return XSeries(new_vars, out, {w: c for w, c in f.log_coeff.items()}, trunc)
