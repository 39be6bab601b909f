"""Cut-and-join operator M and the representation Z|_{gs=1} = exp(M)(1).

M = (1/2) sum_{m >= -1} g_{m+2} L'_m with gs set to 1; each application adds
one edge, i.e. raises the coupling weight by exactly 2, so exp(M)(1) truncated
at weight D needs at most D/2 iterations.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import CouplingMonomial, CouplingSeries, Rat
from .virasoro import _d, _emit


def _apply_Lprime(m: int, mono: CouplingMonomial, c: Rat,
                  out: dict[CouplingMonomial, Rat]) -> None:
    """Accumulate c * L'_m(mono); L'_m has no -(m+2) d_{m+2} term and gs=1."""
    if m == -1:
        for k in set(mono.couplings):
            dk = _d(mono, k)
            _emit(out, dk[0].times_g(k + 1), c * k * dk[1])
        _emit(out, mono.times_g(1).shift(t_power=1), c)
    elif m == 0:
        if mono.weight:
            _emit(out, mono, c * mono.weight)
        _emit(out, mono.shift(t_power=2), c)
    elif m == 1:
        for k in set(mono.couplings):
            if k >= 2:
                dk = _d(mono, k)
                _emit(out, dk[0].times_g(k - 1), c * k * dk[1])
        d1 = _d(mono, 1)
        if d1:
            _emit(out, d1[0].shift(t_power=1), 2 * c * d1[1])
    else:
        for j in set(mono.couplings):
            if j >= m + 1:
                dj = _d(mono, j)
                _emit(out, dj[0].times_g(j - m), c * j * dj[1])
        for k in range(1, m):
            l = m - k
            first = _d(mono, l)
            if first is None:
                continue
            m1, c1 = first
            second = _d(m1, k)
            if second is None:
                continue
            m2, c2 = second
            _emit(out, m2, c * k * l * c1 * c2)
        dm = _d(mono, m)
        if dm:
            _emit(out, dm[0].shift(t_power=1), 2 * m * c * dm[1])


def apply_M(f: CouplingSeries) -> CouplingSeries:
    """Apply M = (1/2) sum_m g_{m+2} L'_m, truncated at f's weight bound.

    Every term raises the weight by exactly 2, so a monomial of weight w is
    visited only if w + 2 <= f.trunc (always when f.trunc is None), and only
    for m = -1 .. w: L'_m lowers the weight by m and vanishes for m > w.
    """
    half = Fraction(1, 2)
    out: dict[CouplingMonomial, Rat] = {}
    for mono, c in f.terms.items():
        if f.trunc is not None and mono.weight + 2 > f.trunc:
            continue
        for m in range(-1, mono.weight + 1):
            inner: dict[CouplingMonomial, Rat] = {}
            _apply_Lprime(m, mono, c * half, inner)
            for mm, cc in inner.items():
                _emit(out, mm.times_g(m + 2), cc)
    return CouplingSeries(out, f.trunc)


def exp_M_vacuum(max_weight: int) -> CouplingSeries:
    """exp(M)(1) = sum_k M^k(1)/k!, truncated at coupling weight max_weight."""
    if max_weight < 0:
        raise ValueError("weight bound must be >= 0")
    acc = CouplingSeries.one(max_weight)
    power = CouplingSeries.one(max_weight)
    k = 0
    while True:
        k += 1
        power = apply_M(power) * Fraction(1, k)
        if power.is_zero():
            break
        acc = acc + power
    return acc


def m_power_vacuum(k: int, max_weight: int) -> CouplingSeries:
    """M^k(1)/k!, the k-edge stratum of the partition function at gs=1."""
    power = CouplingSeries.one(max_weight)
    for i in range(1, k + 1):
        power = apply_M(power) * Fraction(1, i)
    return power
