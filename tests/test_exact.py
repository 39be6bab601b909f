"""Exact arithmetic layer: rationals, t-polynomials, coupling series."""

import operator
import random

import pytest
from fractions import Fraction

from fatrec.exact import (CouplingMonomial, CouplingSeries, TPoly, rat_str,
                          series_exp, series_log)
from fatrec.xseries import XSeries


def mono(couplings=(), t=0, gs=0):
    return CouplingMonomial(couplings, t, gs)


def test_rat_rendering():
    assert rat_str(Fraction(1, 2)) == "1/2"
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(Fraction(-3, 9)) == "-1/3"


def test_monomial_rendering():
    m = mono((2,), t=2, gs=-2)
    assert str(m) == "t^2 * g2 * gs^-2"
    assert str(mono()) == "1"
    assert str(mono((1, 1), t=1)) == "t * g1^2"


def test_monomial_weight_and_order_independence():
    assert mono((3, 1, 2)).weight == 6
    assert mono((3, 1, 2)) == mono((1, 2, 3))


def test_tpoly_arithmetic_exact():
    p = TPoly({1: Fraction(1, 2)})
    q = TPoly({2: Fraction(1, 3), 0: 1})
    assert (p + q) - q == p
    assert p * q == TPoly({3: Fraction(1, 6), 1: Fraction(1, 2)})
    assert (p - p).is_zero()
    assert p.eval_at(Fraction(2)) == Fraction(1)


def test_tpoly_defers_to_foreign_operands():
    f = XSeries(("x",), {(-1,): 1, (-3,): TPoly.t_power(1, 2)})
    for c in (TPoly.const(2), TPoly({0: 1, 2: Fraction(1, 3)})):
        assert c * f == f * c
    one = TPoly.const(1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(one, "a")
        with pytest.raises(TypeError):
            op("a", one)


def test_tpoly_rejects_negative_exponent():
    with pytest.raises(ValueError):
        TPoly({-1: 1})


def test_series_truncation_is_ideal():
    # weight(ab) = weight(a) + weight(b); products beyond D are discarded
    a = CouplingSeries.monomial(mono((3,)), 1, trunc=4)
    b = CouplingSeries.monomial(mono((2,)), 1, trunc=4)
    assert (a * b).is_zero()
    c = CouplingSeries.monomial(mono((1,)), 1, trunc=4)
    assert (a * c).coeff(mono((1, 3))) == 1


def test_series_exp_identity_case():
    assert series_exp(CouplingSeries.zero(4)) == CouplingSeries.one(4)


def test_series_exp_single_term():
    # exp(t g1^2 / 2) at D=4: 1 + t g1^2/2 + t^2 g1^4/8
    f = CouplingSeries.monomial(mono((1, 1), t=1), Fraction(1, 2), trunc=4)
    e = series_exp(f)
    assert e.coeff(mono()) == 1
    assert e.coeff(mono((1, 1), t=1)) == Fraction(1, 2)
    assert e.coeff(mono((1, 1, 1, 1), t=2)) == Fraction(1, 8)
    assert len(e.terms) == 3


def test_series_exp_truncation_kills_cross_terms():
    f = (CouplingSeries.monomial(mono((1, 1), t=1), Fraction(1, 2), trunc=2)
         + CouplingSeries.monomial(mono((2,), t=2), Fraction(1, 2), trunc=2))
    e = series_exp(f)
    assert e == CouplingSeries.one(2) + f


def test_series_exp_rejects_constant_term():
    with pytest.raises(ValueError, match="non-nilpotent"):
        series_exp(CouplingSeries.one(4))


def test_series_exp_rejects_weight_zero_monomial():
    # a pure t-monomial never truncates away
    with pytest.raises(ValueError, match="non-nilpotent"):
        series_exp(CouplingSeries.monomial(mono((), t=2), 1, trunc=4))


def _random_series(rng, trunc, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
        m = CouplingMonomial(parts, rng.randint(0, 2), rng.randint(-2, 2))
        terms[m] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return CouplingSeries(terms, trunc)


def test_ring_axioms_on_random_series():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (_random_series(rng, 6) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c


def test_log_exp_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        terms = {}
        for _ in range(3):
            parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
            m = CouplingMonomial(parts, rng.randint(0, 1), 0)
            terms[m] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        f = CouplingSeries(terms, 6)
        assert series_log(series_exp(f)) == f


def test_grading_of_homogeneous_products():
    a = CouplingSeries.monomial(mono((2, 1)), 2, trunc=10)
    b = CouplingSeries.monomial(mono((3,)), 5, trunc=10)
    prod = a * b
    [(m, c)] = prod.terms.items()
    assert m.weight == 6 and c == 10


def test_derivative():
    s = CouplingSeries.monomial(mono((2, 2), t=1), Fraction(1, 2))
    d = s.d_g(2)
    assert d.coeff(mono((2,), t=1)) == 1
    assert s.d_g(5).is_zero()


def _product_reference(a, b):
    """All-pairs product; the constructor drops what lies past the bound."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = m1 * m2
            out[m] = out.get(m, 0) + c1 * c2
    bounds = [x for x in (a.trunc, b.trunc) if x is not None]
    return CouplingSeries(out, min(bounds) if bounds else None)


def _weighted_series(rng, trunc, n_terms=8):
    terms = {}
    for _ in range(n_terms):
        parts = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
        m = CouplingMonomial(parts, rng.randint(0, 2), rng.randint(-1, 1))
        terms[m] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return CouplingSeries(terms, trunc)


@pytest.mark.parametrize("trunc_a, trunc_b",
                         [(None, None), (6, 6), (9, 9), (None, 7), (5, None), (4, 8)])
def test_series_product_matches_all_pairs(trunc_a, trunc_b):
    rng = random.Random(1000 + 10 * (trunc_a or 0) + (trunc_b or 0))
    for _ in range(30):
        a = _weighted_series(rng, trunc_a)
        b = _weighted_series(rng, trunc_b)
        prod = a * b
        ref = _product_reference(a, b)
        assert prod == ref
        assert prod.trunc == ref.trunc


def test_series_product_keeps_terms_exactly_at_the_bound():
    a = CouplingSeries({mono((1,)): 2, mono((2, 3)): 1, mono((6,)): 5}, trunc=6)
    b = CouplingSeries({mono(()): 3, mono((5,), t=1): -1, mono((1,)): 1}, trunc=6)
    prod = a * b
    assert prod == _product_reference(a, b)
    assert prod.coeff(mono((1, 5), t=1)) == -2
    assert prod.coeff(mono((1, 2, 3))) == 1
    assert prod.coeff(mono((6,))) == 15
    assert all(m.weight <= 6 for m in prod.terms)
    assert prod.coeff(mono((1, 6))) == 0


def test_monomial_weight_is_read_only():
    m = mono((2, 2, 1), t=1)
    assert m.weight == 5
    with pytest.raises(AttributeError):
        m.weight = 4


def test_monomial_rejects_bad_parts():
    for couplings in [(2, 0), (-1,), (0,)]:
        with pytest.raises(ValueError, match="positive"):
            CouplingMonomial(couplings)
    with pytest.raises(ValueError, match="negative t power"):
        CouplingMonomial((2,), -1)


def test_derived_monomials_equal_validated_ones():
    m = mono((3, 1, 3), t=2, gs=-2)
    for derived, expected in [(m.without_one(3), mono((1, 3), 2, -2)),
                              (m.without_one(1), mono((3, 3), 2, -2)),
                              (m.times_g(2), mono((1, 2, 3, 3), 2, -2)),
                              (m.times_g(4), mono((1, 3, 3, 4), 2, -2)),
                              (m.shift(1, 2), mono((1, 3, 3), 3, 0)),
                              (m * mono((2, 1), 1, 1), mono((1, 1, 2, 3, 3), 3, -1))]:
        assert derived == expected
        assert (derived.couplings, derived.weight) == (expected.couplings, expected.weight)


def test_labelled_coefficients_round_trip_at_the_boundary():
    # A = c * prod_k m_k! k^{m_k}; .terms and .coeff give c back
    s = CouplingSeries({mono((2, 2, 1), t=1): Fraction(3, 5), mono((3,)): 2,
                        mono((), gs=-2): Fraction(1, 2)}, trunc=6)
    assert s._a == {((1, 2, 2), 1, 0): Fraction(24, 5), ((3,), 0, 0): 6,
                    ((), 0, -2): Fraction(1, 2)}
    assert s.terms == {mono((1, 2, 2), t=1): Fraction(3, 5), mono((3,)): 2,
                       mono((), gs=-2): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in s.terms.values())
    assert s.coeff(mono((2, 1, 2), t=1)) == Fraction(3, 5)
    assert s.coeff(mono((4,))) == 0
