"""Cut-and-join operator M and the representation Z|_{gs=1} = exp(M)(1).

M = (1/2) sum_{m >= -1} g_{m+2} L'_m with gs set to 1; each application adds
one edge, i.e. raises the coupling weight by exactly 2, so exp(M)(1) truncated
at weight D needs at most D/2 iterations.
"""

from __future__ import annotations

from .exact import CouplingSeries, _divided, _insert, _summed
from .virasoro import _L_terms, reliable_weight


def apply_M(f: CouplingSeries) -> CouplingSeries:
    """Apply M = (1/2) sum_m g_{m+2} L'_m, truncated at f's weight bound.

    Every term raises the weight by exactly 2, so L'_m is built only up to
    weight f.trunc - m - 2 (all of it when f.trunc is None), and only for
    m = -1 .. the largest weight of f: L'_m vanishes on lighter monomials.
    The 1/2 is exact: on int coefficients every term comes in a pair or
    with an even factor.
    """
    heaviest = max((sum(ks) for ks, _, _ in f._a), default=-1)

    def terms():
        for m in range(-1, heaviest + 1):
            bound = None if f.trunc is None else reliable_weight(f.trunc, m)
            for ks, t, s, v in _L_terms(m, f._a, bound, prime=True):
                up, n = _insert(ks, m + 2)
                yield up, t, s, v * (m + 2) * n

    return CouplingSeries._of(_divided(_summed(terms()), 2, strict=True), f.trunc)


def exp_M_vacuum(max_weight: int) -> CouplingSeries:
    """exp(M)(1) = sum_k M^k(1)/k!, truncated at coupling weight max_weight."""
    if max_weight < 0:
        raise ValueError("weight bound must be >= 0")
    acc = CouplingSeries.one(max_weight)
    power = CouplingSeries.one(max_weight)
    k = 0
    while True:
        k += 1
        power = _over(apply_M(power), k)
        if power.is_zero():
            break
        acc = acc + power
    return acc


def m_power_vacuum(k: int, max_weight: int) -> CouplingSeries:
    """M^k(1)/k!, the k-edge stratum of the partition function at gs=1."""
    power = CouplingSeries.one(max_weight)
    for i in range(1, k + 1):
        power = _over(apply_M(power), i)
    return power


def _over(f: CouplingSeries, k: int) -> CouplingSeries:
    """f / k, where k divides every int coefficient: M^k(1)/k! counts gluings."""
    return CouplingSeries._of(_divided(f._a, k, strict=True), f.trunc)
