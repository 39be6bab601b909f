"""Exact arithmetic layer: rationals, t-polynomials, graded coupling series.

Every quantity in this package is a rational number, a polynomial in the
't Hooft coupling t with rational coefficients, or a truncated formal series
in the couplings g_1, g_2, ... whose coefficients live in Q[t][gs, gs^-1].
No floating point is used anywhere.

A coupling series is held in the labelled normalization

    sum_m A_m t^a gs^b prod_k g_k^{m_k} / (m_k! k^{m_k}),

where A_m counts gluings of labelled vertices that each carry a marked
half-edge; for F, Z and exp(M)(1) every A_m is an integer.  In this basis a
product is the binomial convolution A(m) = sum prod_k binom(m_k, m'_k)
A'(m') B(m - m'), k d/dg_k drops one g_k and keeps A, and multiplying by g_k
scales A by k (m_k + 1).  ``Fraction`` and ``CouplingMonomial`` appear only
at the boundary: the constructor, ``terms``, ``coeff`` and ``str``.  A
caller's coefficient whose labelled value is not integral stays a Fraction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import count
from math import comb, factorial, prod
from typing import Iterable, Mapping

Rat = Fraction

RAT_ZERO = Fraction(0)
RAT_ONE = Fraction(1)


def rat(p, q=None) -> Rat:
    """Build a rational; accepts ints, strings like "3/5", or a (p, q) pair."""
    if q is None:
        return Fraction(p)
    return Fraction(p, q)


def rat_str(x: Rat) -> str:
    """Canonical text form "p/q", with "/q" omitted when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Polynomials in t
# ---------------------------------------------------------------------------

class TPoly:
    """Polynomial in t with rational coefficients, stored sparsely.

    Immutable; zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Rat] | None = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if e < 0:
                    raise ValueError("negative t exponent")
                c = Fraction(c)
                if c != 0:
                    clean[int(e)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("TPoly is immutable")

    @staticmethod
    def zero() -> "TPoly":
        return TPoly()

    @staticmethod
    def const(c) -> "TPoly":
        return TPoly({0: Fraction(c)})

    @staticmethod
    def t_power(e: int, c=1) -> "TPoly":
        return TPoly({e: Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = TPoly.const(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "TPoly":
        if isinstance(other, (int, Fraction)):
            other = TPoly.const(other)
        elif not isinstance(other, TPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, RAT_ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return TPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "TPoly":
        return TPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "TPoly":
        if isinstance(other, (int, Fraction)):
            other = TPoly.const(other)
        elif not isinstance(other, TPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TPoly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other) -> "TPoly":
        if isinstance(other, (int, Fraction)):
            return TPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, TPoly):
            return NotImplemented
        out: dict[int, Rat] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, RAT_ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return TPoly(out)

    __rmul__ = __mul__

    def eval_at(self, t: Rat) -> Rat:
        """Evaluate at a rational t."""
        return sum((c * t ** e for e, c in self.terms.items()), RAT_ZERO)

    def single_term(self) -> tuple[int, Rat] | None:
        """Return (exponent, coeff) when the polynomial is a single monomial."""
        if len(self.terms) == 1:
            [(e, c)] = self.terms.items()
            return e, c
        return None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                parts.append(rat_str(c))
            elif e == 1:
                parts.append(f"{rat_str(c)} * t" if c != 1 else "t")
            else:
                parts.append(f"{rat_str(c)} * t^{e}" if c != 1 else f"t^{e}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TPoly({self})"


# ---------------------------------------------------------------------------
# Coupling monomials and graded truncated series
# ---------------------------------------------------------------------------

class CouplingMonomial:
    """Monomial t^a * gs^b * g_{k1} g_{k2} ... with k's a sorted multiset.

    The weight is the sum of the coupling subscripts; truncation of
    CouplingSeries is by weight.
    """

    __slots__ = ("couplings", "t_power", "gs_power", "weight")

    def __init__(self, couplings: Iterable[int] = (), t_power: int = 0, gs_power: int = 0):
        ks = tuple(sorted(int(k) for k in couplings))
        if any(k <= 0 for k in ks):
            raise ValueError("coupling subscripts must be positive")
        if t_power < 0:
            raise ValueError("negative t power")
        self._fill(ks, int(t_power), int(gs_power))

    @classmethod
    def _make(cls, ks: tuple[int, ...], t_power: int, gs_power: int) -> "CouplingMonomial":
        """Trusted constructor: ``ks`` is sorted and positive, ``t_power`` >= 0."""
        self = object.__new__(cls)
        self._fill(ks, t_power, gs_power)
        return self

    def _fill(self, ks, t_power, gs_power):
        for name, value in zip(self.__slots__, (ks, t_power, gs_power, sum(ks))):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("CouplingMonomial is immutable")

    def is_empty(self) -> bool:
        return not self.couplings and self.t_power == 0 and self.gs_power == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, CouplingMonomial)
                and self.couplings == other.couplings
                and self.t_power == other.t_power
                and self.gs_power == other.gs_power)

    def __hash__(self):
        return hash((self.couplings, self.t_power, self.gs_power))

    def __lt__(self, other) -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (self.weight, self.couplings, self.t_power, self.gs_power)

    def __mul__(self, other: "CouplingMonomial") -> "CouplingMonomial":
        return CouplingMonomial._make(tuple(sorted(self.couplings + other.couplings)),
                                      self.t_power + other.t_power,
                                      self.gs_power + other.gs_power)

    def multiplicity(self, k: int) -> int:
        return self.couplings.count(k)

    def without_one(self, k: int) -> "CouplingMonomial":
        """Remove one factor g_k (caller guarantees presence)."""
        return CouplingMonomial._make(_drop(self.couplings, k), self.t_power, self.gs_power)

    def times_g(self, k: int) -> "CouplingMonomial":
        return CouplingMonomial._make(_insert(self.couplings, k)[0], self.t_power,
                                      self.gs_power)

    def shift(self, t_power: int = 0, gs_power: int = 0) -> "CouplingMonomial":
        return CouplingMonomial._make(self.couplings, self.t_power + t_power,
                                      self.gs_power + gs_power)

    def __str__(self) -> str:
        parts = []
        if self.t_power == 1:
            parts.append("t")
        elif self.t_power:
            parts.append(f"t^{self.t_power}")
        seen: dict[int, int] = {}
        for k in self.couplings:
            seen[k] = seen.get(k, 0) + 1
        for k in sorted(seen):
            parts.append(f"g{k}" if seen[k] == 1 else f"g{k}^{seen[k]}")
        if self.gs_power:
            parts.append(f"gs^{self.gs_power}")
        return " * ".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"CouplingMonomial({self})"


EMPTY_MONOMIAL = CouplingMonomial()


def _norm(ks: tuple[int, ...]) -> int:
    """prod_k m_k! k^{m_k} for the multiset ks (m_k the multiplicity of k)."""
    n = prod(ks)
    for k in set(ks):
        n *= factorial(ks.count(k))
    return n


def _drop(ks: tuple[int, ...], k: int) -> tuple[int, ...]:
    """ks without one k (present): k d/dg_k keeps the labelled coefficient."""
    i = ks.index(k)
    return ks[:i] + ks[i + 1:]


def _insert(ks: tuple[int, ...], k: int) -> tuple[tuple[int, ...], int]:
    """(ks with one more k, its new multiplicity n): g_k scales A by k * n."""
    hi = bisect_right(ks, k)
    return ks[:hi] + (k,) + ks[hi:], hi - bisect_left(ks, k, 0, hi) + 1


def _summed(terms, trunc: int | None = None) -> dict:
    """Labelled coefficients summed from (couplings, t, gs, A) terms.

    Sums are not popped at zero while they accumulate, so an int slot only
    ever received ints; zeros and weights above ``trunc`` are dropped at the end.
    """
    out: dict = {}
    for ks, t, s, v in terms:
        key = (ks, t, s)
        out[key] = out.get(key, 0) + v
    return _cut(out, trunc)


def _cut(a: dict, trunc: int | None) -> dict:
    return {key: v for key, v in a.items()
            if v and (trunc is None or sum(key[0]) <= trunc)}


def _divided(a: dict, k: int, strict: bool = False) -> dict:
    """a / k slot by slot; an int slot stays an int when k divides it.

    With ``strict`` an int slot that k does not divide raises ArithmeticError.
    """
    out = {}
    for key, v in a.items():
        if type(v) is int and not v % k:
            out[key] = v // k
        elif strict and type(v) is int:
            raise ArithmeticError(f"labelled coefficient {v} at {key} is not divisible by {k}")
        else:
            out[key] = Fraction(v, k)
    return out


def _grouped(a: dict) -> list:
    """[(weight, couplings, [(t, gs, A), ...]), ...], lightest first."""
    groups: dict = {}
    for (ks, t, s), v in a.items():
        groups.setdefault(ks, []).append((t, s, v))
    return sorted((sum(ks), ks, items) for ks, items in groups.items())


def _product(a: dict, right: list, trunc: int | None) -> dict:
    """Binomial convolution of ``a`` with ``right`` (from _grouped), cut at trunc.

    A(m) = sum prod_k binom(m_k, m'_k) A'(m') B(m - m'); for each left
    couplings the walk over ``right`` stops at the first weight past trunc.
    """
    out: dict = {}
    for w1, ks1, items1 in _grouped(a):
        room = None if trunc is None else trunc - w1
        for w2, ks2, items2 in right:
            if room is not None and w2 > room:
                break
            f = 1
            for k in set(ks2).intersection(ks1):
                n = ks2.count(k)
                f *= comb(ks1.count(k) + n, n)
            ks = tuple(sorted(ks1 + ks2))
            for t1, s1, v1 in items1:
                fv = f * v1
                for t2, s2, v2 in items2:
                    key = (ks, t1 + t2, s1 + s2)
                    out[key] = out.get(key, 0) + fv * v2
    return _cut(out, None)


class CouplingSeries:
    """Finite linear combination of CouplingMonomials, truncated by weight.

    ``trunc`` is the maximal stored weight D; arithmetic discards anything
    heavier.  ``trunc=None`` means no truncation (for exact finite work such
    as operator commutators on single monomials).  Coefficients are held as
    labelled coefficients (see ``_norm``); ``terms`` and ``coeff`` give the
    plain ones.
    """

    __slots__ = ("trunc", "_a")

    def __init__(self, terms: Mapping[CouplingMonomial, Rat] | None = None,
                 trunc: int | None = None):
        a = {}
        for m, c in (terms or {}).items():
            v = Fraction(c) * _norm(m.couplings)
            if v and (trunc is None or m.weight <= trunc):
                a[(m.couplings, m.t_power, m.gs_power)] = (
                    v.numerator if v.denominator == 1 else v)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "trunc", trunc)

    @classmethod
    def _of(cls, a: dict, trunc: int | None) -> "CouplingSeries":
        """Trusted constructor from labelled coefficients, nonzero and within trunc."""
        self = object.__new__(cls)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "trunc", trunc)
        return self

    def __setattr__(self, *a):
        raise AttributeError("CouplingSeries is immutable")

    @property
    def terms(self) -> dict[CouplingMonomial, Rat]:
        """The plain coefficients A / _norm, by monomial; a new dict per access."""
        return {CouplingMonomial._make(ks, t, s): Fraction(v, _norm(ks))
                for (ks, t, s), v in self._a.items()}

    @staticmethod
    def zero(trunc: int | None = None) -> "CouplingSeries":
        return CouplingSeries({}, trunc)

    @staticmethod
    def one(trunc: int | None = None) -> "CouplingSeries":
        return CouplingSeries({EMPTY_MONOMIAL: RAT_ONE}, trunc)

    @staticmethod
    def monomial(m: CouplingMonomial, c=1, trunc: int | None = None) -> "CouplingSeries":
        return CouplingSeries({m: Fraction(c)}, trunc)

    def is_zero(self) -> bool:
        return not self._a

    def coeff(self, m: CouplingMonomial) -> Rat:
        v = self._a.get((m.couplings, m.t_power, m.gs_power))
        return Fraction(v, _norm(m.couplings)) if v else RAT_ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, CouplingSeries):
            return NotImplemented
        return self._a == other._a

    def __hash__(self):
        return hash(frozenset(self._a.items()))

    @staticmethod
    def _min_trunc(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other: "CouplingSeries") -> "CouplingSeries":
        trunc = self._min_trunc(self.trunc, other.trunc)
        out = dict(self._a)
        for key, v in other._a.items():
            out[key] = out.get(key, 0) + v
        return CouplingSeries._of(_cut(out, trunc), trunc)

    def __neg__(self) -> "CouplingSeries":
        return CouplingSeries._of({key: -v for key, v in self._a.items()}, self.trunc)

    def __sub__(self, other: "CouplingSeries") -> "CouplingSeries":
        return self + (-other)

    def __mul__(self, other) -> "CouplingSeries":
        if isinstance(other, (int, Fraction)):
            scaled = _cut({key: v * other.numerator for key, v in self._a.items()}, None)
            return CouplingSeries._of(_divided(scaled, other.denominator), self.trunc)
        trunc = self._min_trunc(self.trunc, other.trunc)
        return CouplingSeries._of(_product(self._a, _grouped(other._a), trunc), trunc)

    __rmul__ = __mul__

    def weight_component(self, w: int) -> "CouplingSeries":
        return CouplingSeries._of({key: v for key, v in self._a.items() if sum(key[0]) == w},
                                  self.trunc)

    def d_g(self, k: int) -> "CouplingSeries":
        """Partial derivative with respect to g_k."""
        shifted = {(_drop(ks, k), t, s): v for (ks, t, s), v in self._a.items() if k in ks}
        return CouplingSeries._of(_divided(shifted, k), self.trunc)

    def set_gs_one(self) -> "CouplingSeries":
        """Specialize gs = 1 (merge monomials that differ only in gs power)."""
        return CouplingSeries._of(_summed((ks, t, 0, v) for (ks, t, _), v in self._a.items()),
                                  self.trunc)

    def sorted_terms(self) -> list[tuple[CouplingMonomial, Rat]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self) -> str:
        if not self._a:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if m.is_empty():
                parts.append(rat_str(c))
            elif c == 1:
                parts.append(str(m))
            else:
                parts.append(f"{rat_str(c)} * {m}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CouplingSeries({self}, trunc={self.trunc})"


def series_exp(f: CouplingSeries) -> CouplingSeries:
    """exp(f) = sum f^k / k!, truncated at f's weight bound.

    Requires every monomial of f to carry at least one coupling (weight >= 1),
    otherwise the exponential would not terminate under weight truncation.
    The running power f^k / k! is the previous one times f, divided by k; on
    integral labelled coefficients that division is exact.
    """
    for ks, _, _ in f._a:
        if not ks:
            raise ValueError("non-nilpotent exponent")
    if f.trunc is None:
        raise ValueError("series_exp needs a truncated series")
    right = _grouped(f._a)
    out = {((), 0, 0): 1}
    power = {((), 0, 0): 1}
    for k in count(1):
        power = _product(power, right, f.trunc)
        if not power:
            break
        power = _divided(power, k)
        for key, v in power.items():
            out[key] = out.get(key, 0) + v
    return CouplingSeries._of(_cut(out, f.trunc), f.trunc)


def series_log(f: CouplingSeries) -> CouplingSeries:
    """log(f) for f = 1 + h with h of weight >= 1; inverse of series_exp."""
    if f.coeff(EMPTY_MONOMIAL) != 1:
        raise ValueError("constant term must be 1")
    h = f - CouplingSeries.one(f.trunc)
    for m in h.terms:
        if m.weight == 0:
            raise ValueError("non-nilpotent argument")
    if f.trunc is None:
        raise ValueError("series_log needs a truncated series")
    out = CouplingSeries.zero(f.trunc)
    power = CouplingSeries.one(f.trunc)
    k = 0
    while True:
        k += 1
        power = power * h
        if power.is_zero():
            break
        out = out + power * Fraction((-1) ** (k + 1), k)
    return out
