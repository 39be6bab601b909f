"""Fat Virasoro operators, constraint checks, Heisenberg bosons, spectral curve.

The operators L_m (m >= -1) act on coupling series; applied to the partition
function every weight component inside the reliable band (weight <= D - m - 2
for input truncation D) must vanish.  The genus-zero content is re-checked in
spectral form: the special deformation y(z) squares to a series with no
negative z-powers, and at zero couplings 2y^2 = z^2 - 4t.

sqrt(2) bookkeeping: the realized bosons carry formal markers sqrt(2)^e; all
implemented combinations are quadratic, so exponents are even and every
coefficient stays rational.  Odd combinations are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .correlators import CorrelatorCache, correlator, free_energy
from .exact import (CouplingMonomial, CouplingSeries, TPoly, _drop, _insert, _summed,
                    rat_str)


class LinearOp:
    """Exact linear endomorphism of the coupling ring, as a callable."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, f: CouplingSeries) -> CouplingSeries:
        return self._fn(f)


def _L_terms(m: int, a: dict, top: int | None, prime: bool = False):
    """Yield the (couplings, t, gs, A) terms of L_m on labelled coefficients a.

    L_m = sum_{j > m} j g_{j-m} d_j - (m+2) d_{m+2}
          + gs^2 sum_{k=1}^{m-1} k (m-k) d_k d_{m-k} + 2m t d_m
          + [m = -1] t g_1 gs^-2 + [m = 0] t^2 gs^-2.
    In the labelled basis every coefficient is an integer multiple of its
    source's.  No term of weight above ``top`` (None: no bound) is built.
    With ``prime`` it is L'_m at gs = 1: no -(m+2) d_{m+2}, no gs shifts.
    """
    gs2 = 0 if prime else 2
    for (ks, t, s), v in a.items():
        w = sum(ks)
        if w < m:
            continue
        if not prime and m + 2 in ks and (top is None or w - m - 2 <= top):
            yield _drop(ks, m + 2), t, s, -v
        if top is not None and w - m > top:
            continue
        for j in set(ks):
            if j > m:
                up, n = _insert(_drop(ks, j), j - m)
                yield up, t, s, v * (j - m) * n
        for k in range(1, m // 2 + 1):
            if k in ks:
                rest = _drop(ks, k)
                if m - k in rest:
                    yield _drop(rest, m - k), t, s + gs2, v if 2 * k == m else 2 * v
        if m > 0 and m in ks:
            yield _drop(ks, m), t + 1, s, 2 * v
        elif m == -1:
            up, n = _insert(ks, 1)
            yield up, t + 1, s - gs2, v * n
        elif m == 0:
            yield ks, t + 2, s - gs2, v


def apply_L(m: int, f: CouplingSeries) -> CouplingSeries:
    """Apply the fat Virasoro operator L_{m,t} exactly.

    The output keeps f's truncation; its components of weight above
    D - m - 2 miss contributions from discarded input weights and must not
    be asserted against (see reliable_weight).
    """
    if m < -1:
        raise ValueError("m must be >= -1")
    return CouplingSeries._of(_summed(_L_terms(m, f._a, f.trunc)), f.trunc)


def reliable_weight(trunc: int, m: int) -> int:
    """Largest output weight of L_m fully determined by input weight <= trunc.

    L_m shifts weight by -m and -(m+2); the latter gives the bound.
    """
    return trunc - m - 2


@dataclass
class SuiteReport:
    suite: str
    params: dict
    status: str
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {"suite": self.suite, **self.params, "status": self.status,
               "violations": self.violations}
        if self.notes:
            out["notes"] = self.notes
        if self.checks:
            out["checks"] = self.checks
        return out


def _require_checks(checked: int, suite: str) -> None:
    """Refuse bounds at which ``suite`` checks nothing, so it cannot pass vacuously."""
    if not checked:
        raise ValueError(f"suite {suite} has nothing to check at these bounds")


def verify_virasoro(m_max: int, max_weight: int,
                    cache: CorrelatorCache | None = None) -> SuiteReport:
    """Assert that every reliable component of L_m Z vanishes, -1 <= m <= m_max."""
    from .correlators import partition_function
    if m_max < -1:
        raise ValueError("m_max must be >= -1")
    _require_checks(sum(reliable_weight(max_weight, m) >= 0
                        for m in range(-1, m_max + 1)), "virasoro")
    z = partition_function(max_weight, cache)
    violations = []
    checks = []
    for m in range(-1, m_max + 1):
        bound = reliable_weight(max_weight, m)
        lz = CouplingSeries._of(_summed(_L_terms(m, z._a, bound)), bound)
        bad = [{"m": m, "monomial": str(mono), "coeff": rat_str(c)}
               for mono, c in lz.sorted_terms()]
        violations.extend(bad)
        checks.append({"suite": "virasoro", "m": m, "D": max_weight,
                       "status": "pass" if not bad else "fail",
                       "violations": bad})
    status = "pass" if not violations else "fail"
    return SuiteReport("virasoro", {"m_max": m_max, "D": max_weight},
                       status, violations, checks=checks)


def commutator_check(m: int, n: int, probe: CouplingMonomial) -> bool:
    """[L_m, L_n] = (m - n) L_{m+n} applied to the probe monomial, exactly."""
    if m < -1 or n < -1 or m + n < -1:
        raise ValueError("indices out of range")
    s = CouplingSeries.monomial(probe)
    lhs = apply_L(m, apply_L(n, s)) - apply_L(n, apply_L(m, s))
    rhs = apply_L(m + n, s) * Fraction(m - n)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Realized Heisenberg bosons with sqrt(2) markers
# ---------------------------------------------------------------------------

class MarkedOp:
    """A linear operator together with an integer exponent of sqrt(2)."""

    def __init__(self, fn, sqrt2_exp: int):
        self.fn = fn
        self.sqrt2_exp = sqrt2_exp

    def __call__(self, f: CouplingSeries) -> CouplingSeries:
        return self.fn(f)


def boson(n: int) -> MarkedOp:
    """Realized Heisenberg operator: creation for n<0, annihilation for n>0."""
    if n == 0:
        raise ValueError("zero index")
    if n < 0:
        k = -n

        def create(f: CouplingSeries) -> CouplingSeries:
            def terms():
                for (ks, t, s), v in f._a.items():
                    up, mult = _insert(ks, k)
                    yield up, t, s - 1, v * k * mult
                    if k == 2:
                        yield ks, t, s - 1, -v
            return CouplingSeries._of(_summed(terms(), f.trunc), f.trunc)

        return MarkedOp(create, -1)

    def annihilate(f: CouplingSeries) -> CouplingSeries:
        shifted = {(_drop(ks, n), t, s + 1): v for (ks, t, s), v in f._a.items() if n in ks}
        return CouplingSeries._of(shifted, f.trunc)

    return MarkedOp(annihilate, 1)


def marked_product_factor(*ops: MarkedOp) -> Fraction:
    """Rational value of the accumulated sqrt(2) markers; odd totals rejected."""
    e = sum(op.sqrt2_exp for op in ops)
    if e % 2:
        raise ValueError("stray sqrt(2): marker exponent is odd")
    return Fraction(2) ** (e // 2)


def heisenberg_check(m: int, n: int, probe: CouplingMonomial) -> bool:
    """[b_m, b_n] = m delta_{m+n,0} on the probe, with markers cancelled."""
    if m == 0 or n == 0:
        raise ValueError("zero index")
    bm, bn = boson(m), boson(n)
    factor = marked_product_factor(bm, bn)
    s = CouplingSeries.monomial(probe)
    comm = bm(bn(s)) - bn(bm(s))
    lhs = comm * factor
    if m + n == 0:
        rhs = s * Fraction(m)
    else:
        rhs = CouplingSeries.zero()
    return lhs == rhs


# ---------------------------------------------------------------------------
# Genus-zero spectral data
# ---------------------------------------------------------------------------

def _laurent_mul(a: dict[int, CouplingSeries], b: dict[int, CouplingSeries],
                 min_pow: int, trunc: int) -> dict[int, CouplingSeries]:
    out: dict[int, CouplingSeries] = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            p = pa + pb
            if p < min_pow:
                continue
            prod = ca * cb
            if prod.is_zero():
                continue
            out[p] = out.get(p, CouplingSeries.zero(trunc)) + prod
    return {p: c for p, c in out.items() if not c.is_zero()}


def special_deformation_squared(max_weight: int, z_order: int,
                                cache: CorrelatorCache | None = None
                                ) -> dict[int, CouplingSeries]:
    """(y^Herm)^2 as a Laurent series in z with coupling-series coefficients.

    y = P/sqrt2 + sqrt2 Q with P(z) = sum (g_{n+1} - d_{n,1}) z^n and
    Q = t z^-1 + sum n (dF_0/dg_n) z^-n-1; the square P^2/2 + 2PQ + 2Q^2 is
    rational.  F_0 is computed internally to weight max_weight + z_order so
    that every cell with coupling weight <= max_weight - 2 and z-power down
    to -z_order is complete.
    """
    internal = max_weight + z_order
    f0 = free_energy(0, internal, cache)
    trunc = internal
    p_part: dict[int, CouplingSeries] = {}
    for n in range(0, internal):
        coeff = CouplingSeries.monomial(CouplingMonomial((n + 1,)), 1, trunc)
        if n == 1:
            coeff = coeff - CouplingSeries.one(trunc)
        p_part[n] = coeff
    q_part: dict[int, CouplingSeries] = {
        -1: CouplingSeries.monomial(CouplingMonomial((), 1), 1, trunc)}
    for k in range(1, internal + 1):
        dk = f0.d_g(k) * Fraction(k)
        if not dk.is_zero():
            q_part[-k - 1] = dk
    min_pow = -z_order - 1
    half = Fraction(1, 2)
    two = Fraction(2)
    pp = _laurent_mul(p_part, p_part, min_pow, trunc)
    pq = _laurent_mul(p_part, q_part, min_pow, trunc)
    qq = _laurent_mul(q_part, q_part, min_pow, trunc)
    out: dict[int, CouplingSeries] = {}
    for p, c in pp.items():
        out[p] = out.get(p, CouplingSeries.zero(trunc)) + c * half
    for p, c in pq.items():
        out[p] = out.get(p, CouplingSeries.zero(trunc)) + c * two
    for p, c in qq.items():
        out[p] = out.get(p, CouplingSeries.zero(trunc)) + c * two
    return {p: c for p, c in out.items() if not c.is_zero()}


def y_squared_negative_part(max_weight: int, z_order: int,
                            cache: CorrelatorCache | None = None) -> SuiteReport:
    """Check ((y^Herm)^2)_- = 0 up to weight max_weight-2, z-order z_order."""
    if max_weight < 2 or z_order < 2:
        raise ValueError("bounds too small")
    y2 = special_deformation_squared(max_weight, z_order, cache)
    weight_bound = max_weight - 2
    violations = []
    for p in sorted(y2):
        if p >= 0 or p < -z_order:
            continue
        for mono, c in y2[p].sorted_terms():
            if mono.weight <= weight_bound:
                violations.append({"z_power": p, "monomial": str(mono),
                                   "coeff": rat_str(c)})
    status = "pass" if not violations else "fail"
    return SuiteReport("deformation", {"D": max_weight, "K": z_order},
                       status, violations)


def spectral_curve_check(z_order: int, cache: CorrelatorCache | None = None) -> SuiteReport:
    """At zero couplings, 2 (y^Herm)^2 - z^2 + 4t vanishes above z^-K.

    Equivalent to the Catalan quadratic: the one-point correlators come from
    the production recursion, making this a genuine cross-check.
    """
    if z_order < 2:
        raise ValueError("z_order must be >= 2")
    q: dict[int, TPoly] = {-1: TPoly.t_power(1)}
    for m in range(1, z_order + 2):
        val = correlator(0, (2 * m,), cache) * Fraction(2 * m)
        if not val.is_zero():
            q[-2 * m - 1] = val
    # residual = -4 z Q + 4 Q^2 + 4t  (the z^2/2 of P^2/2 cancels z^2 exactly)
    res: dict[int, TPoly] = {0: TPoly.t_power(1, 4)}
    for p, c in q.items():
        res[p + 1] = res.get(p + 1, TPoly.zero()) + c * Fraction(-4)
    for p1, c1 in q.items():
        for p2, c2 in q.items():
            p = p1 + p2
            if p <= -z_order - 2:
                continue
            res[p] = res.get(p, TPoly.zero()) + c1 * c2 * Fraction(4)
    violations = []
    for p in sorted(res):
        if p <= -z_order:
            continue
        if not res[p].is_zero():
            violations.append({"z_power": p, "value": str(res[p])})
    status = "pass" if not violations else "fail"
    return SuiteReport("spectral", {"K": z_order}, status, violations)
