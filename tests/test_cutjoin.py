"""Cut-and-join operator and the exponential representation of Z at gs=1."""

import random
from fractions import Fraction

import pytest

from fatrec.correlators import partition_function
from fatrec.cutjoin import apply_M, exp_M_vacuum, m_power_vacuum
from fatrec.exact import CouplingMonomial, CouplingSeries, Rat


def mono(couplings=(), t=0):
    return CouplingMonomial(couplings, t, 0)


def test_apply_M_vacuum():
    out = apply_M(CouplingSeries.one(4))
    assert out.coeff(mono((1, 1), 1)) == Fraction(1, 2)
    assert out.coeff(mono((2,), 2)) == Fraction(1, 2)
    assert len(out.terms) == 2


def test_apply_M_zero():
    assert apply_M(CouplingSeries.zero(4)).is_zero()


def test_apply_M_adds_one_edge():
    # one application adds one edge: coupling weight rises by exactly 2
    for m in [mono((1, 1), 1), mono((2,), 2), mono((4,), 1)]:
        out = apply_M(CouplingSeries.monomial(m, 1, trunc=10))
        assert out.terms
        assert all(mm.weight == m.weight + 2 for mm in out.terms)


def test_exp_M_trivial():
    assert exp_M_vacuum(0) == CouplingSeries.one(0)


def test_exp_M_weight2():
    e = exp_M_vacuum(2)
    assert e.coeff(mono()) == 1
    assert e.coeff(mono((1, 1), 1)) == Fraction(1, 2)
    assert e.coeff(mono((2,), 2)) == Fraction(1, 2)


def test_exp_M_g4_coefficient():
    # genus 0 and genus 1 pieces mix at gs=1: (1/2) t^3 + (1/4) t
    e = exp_M_vacuum(4)
    assert e.coeff(mono((4,), 3)) == Fraction(1, 2)
    assert e.coeff(mono((4,), 1)) == Fraction(1, 4)


def test_edge_strata_match_exponential():
    # the weight-2k component of exp(M)(1) is M^k(1)/k!
    e = exp_M_vacuum(6)
    for k in range(0, 4):
        stratum = e.weight_component(2 * k)
        assert stratum == m_power_vacuum(k, 6).weight_component(2 * k)


def test_cut_and_join_theorem_desk_scale():
    for d in range(0, 5):
        assert exp_M_vacuum(d) == partition_function(d).set_gs_one(), d


# The plain-coefficient L'_m that apply_M was built on before it moved onto
# the labelled kernel of apply_L; kept here, with its helpers, as the reference.

def _emit(out: dict[CouplingMonomial, Rat], m: CouplingMonomial, c: Rat):
    s = out.get(m, Fraction(0)) + c
    if s:
        out[m] = s
    else:
        out.pop(m, None)


def _d(monomial: CouplingMonomial, k: int) -> tuple[CouplingMonomial, int] | None:
    mult = monomial.multiplicity(k)
    if not mult:
        return None
    return monomial.without_one(k), mult


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


def _apply_M_reference(f):
    """M with m looped up to max(largest coupling, cap) for every monomial,
    cap = f.trunc, or the largest weight + 2 without one."""
    half = Fraction(1, 2)
    if f.trunc is not None:
        cap = f.trunc
    else:
        cap = max((m.weight for m in f.terms), default=0) + 2
    out = {}
    for m0, c in f.terms.items():
        top = max(m0.couplings, default=0)
        for m in range(-1, max(top, cap) + 1):
            inner = {}
            _apply_Lprime(m, m0, c * half, inner)
            for mm, cc in inner.items():
                key = mm.times_g(m + 2)
                out[key] = out.get(key, 0) + cc
    return CouplingSeries(out, f.trunc)


@pytest.mark.parametrize("trunc", [None, 4, 7, 10])
def test_apply_M_matches_reference(trunc):
    rng = random.Random(500 + (trunc or 0))
    for _ in range(20):
        terms = {}
        for _ in range(5):
            parts = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
            terms[mono(parts, rng.randint(0, 3))] = Fraction(rng.randint(-3, 3),
                                                             rng.randint(1, 4))
        f = CouplingSeries(terms, trunc)
        assert apply_M(f) == _apply_M_reference(f)


def test_apply_M_drops_monomials_without_room_for_an_edge():
    # one edge adds weight 2: a monomial of weight trunc - 1 maps to zero,
    # one of weight trunc - 2 does not
    for m in [mono((3,), 1), mono((1, 2), 2), mono((5, 4), 0)]:
        f = CouplingSeries.monomial(m, 1, trunc=m.weight + 2)
        assert apply_M(f).terms and apply_M(f) == _apply_M_reference(f)
        assert apply_M(CouplingSeries.monomial(m, 1, trunc=m.weight + 1)).is_zero()
