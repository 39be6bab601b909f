"""Exact arithmetic layer: rationals, t-polynomials, graded coupling series.

Every quantity in this package is a rational number, a polynomial in the
't Hooft coupling t with rational coefficients, or a truncated formal series
in the couplings g_1, g_2, ... whose coefficients live in Q[t][gs, gs^-1].
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
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
        return self + (-other)

    def __rsub__(self, other) -> "TPoly":
        return (-self) + other

    def __mul__(self, other) -> "TPoly":
        if isinstance(other, (int, Fraction)):
            return TPoly({e: c * other for e, c in self.terms.items()})
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
        object.__setattr__(self, "couplings", ks)
        object.__setattr__(self, "t_power", int(t_power))
        object.__setattr__(self, "gs_power", int(gs_power))
        object.__setattr__(self, "weight", sum(ks))

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
        return CouplingMonomial(self.couplings + other.couplings,
                                self.t_power + other.t_power,
                                self.gs_power + other.gs_power)

    def multiplicity(self, k: int) -> int:
        return self.couplings.count(k)

    def without_one(self, k: int) -> "CouplingMonomial":
        """Remove one factor g_k (caller guarantees presence)."""
        ks = list(self.couplings)
        ks.remove(k)
        return CouplingMonomial(ks, self.t_power, self.gs_power)

    def times_g(self, k: int) -> "CouplingMonomial":
        return CouplingMonomial(self.couplings + (k,), self.t_power, self.gs_power)

    def shift(self, t_power: int = 0, gs_power: int = 0) -> "CouplingMonomial":
        return CouplingMonomial(self.couplings, self.t_power + t_power,
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


class CouplingSeries:
    """Finite linear combination of CouplingMonomials, truncated by weight.

    ``trunc`` is the maximal stored weight D; arithmetic discards anything
    heavier.  ``trunc=None`` means no truncation (for exact finite work such
    as operator commutators on single monomials).
    """

    __slots__ = ("trunc", "terms")

    def __init__(self, terms: Mapping[CouplingMonomial, Rat] | None = None,
                 trunc: int | None = None):
        clean: dict[CouplingMonomial, Rat] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                if trunc is not None and m.weight > trunc:
                    continue
                clean[m] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):
        raise AttributeError("CouplingSeries is immutable")

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
        return not self.terms

    def coeff(self, m: CouplingMonomial) -> Rat:
        return self.terms.get(m, RAT_ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CouplingSeries):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @staticmethod
    def _min_trunc(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other: "CouplingSeries") -> "CouplingSeries":
        trunc = self._min_trunc(self.trunc, other.trunc)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, RAT_ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return CouplingSeries(out, trunc)

    def __neg__(self) -> "CouplingSeries":
        return CouplingSeries({m: -c for m, c in self.terms.items()}, self.trunc)

    def __sub__(self, other: "CouplingSeries") -> "CouplingSeries":
        return self + (-other)

    def __mul__(self, other) -> "CouplingSeries":
        if isinstance(other, (int, Fraction)):
            return CouplingSeries({m: c * other for m, c in self.terms.items()},
                                  self.trunc)
        trunc = self._min_trunc(self.trunc, other.trunc)
        # other's terms grouped by weight, lightest first, so that each m1
        # stops at the first group that would exceed the truncation
        groups: dict[int, list[tuple[CouplingMonomial, Rat]]] = {}
        for m2, c2 in other.terms.items():
            groups.setdefault(m2.weight, []).append((m2, c2))
        by_weight = sorted(groups.items())
        out: dict[CouplingMonomial, Rat] = {}
        for m1, c1 in self.terms.items():
            room = None if trunc is None else trunc - m1.weight
            for w2, group in by_weight:
                if room is not None and w2 > room:
                    break
                for m2, c2 in group:
                    m = m1 * m2
                    s = out.get(m, RAT_ZERO) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
        return CouplingSeries(out, trunc)

    __rmul__ = __mul__

    def with_trunc(self, trunc: int | None) -> "CouplingSeries":
        return CouplingSeries(self.terms, trunc)

    def weight_component(self, w: int) -> "CouplingSeries":
        return CouplingSeries({m: c for m, c in self.terms.items() if m.weight == w},
                              self.trunc)

    def d_g(self, k: int) -> "CouplingSeries":
        """Partial derivative with respect to g_k."""
        out: dict[CouplingMonomial, Rat] = {}
        for m, c in self.terms.items():
            mult = m.multiplicity(k)
            if mult:
                m2 = m.without_one(k)
                s = out.get(m2, RAT_ZERO) + c * mult
                if s:
                    out[m2] = s
                else:
                    out.pop(m2, None)
        return CouplingSeries(out, self.trunc)

    def set_gs_one(self) -> "CouplingSeries":
        """Specialize gs = 1 (merge monomials that differ only in gs power)."""
        out: dict[CouplingMonomial, Rat] = {}
        for m, c in self.terms.items():
            m2 = CouplingMonomial(m.couplings, m.t_power, 0)
            s = out.get(m2, RAT_ZERO) + c
            if s:
                out[m2] = s
            else:
                out.pop(m2, None)
        return CouplingSeries(out, self.trunc)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=CouplingMonomial.sort_key):
            c = self.terms[m]
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
    """
    for m in f.terms:
        if m.weight == 0:
            raise ValueError("non-nilpotent exponent")
    if f.trunc is None:
        raise ValueError("series_exp needs a truncated series")
    out = CouplingSeries.one(f.trunc)
    power = CouplingSeries.one(f.trunc)
    k = 0
    while True:
        k += 1
        power = power * f
        if power.is_zero():
            break
        out = out + power * Fraction(1, factorial(k))
    return out


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
