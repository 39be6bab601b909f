"""Inverse-power tails: inversion, diagonal substitution, differentiation."""

import random

import pytest
from fractions import Fraction

from fatrec.exact import TPoly
from fatrec.xseries import XSeries, xseries_diag, xseries_invert


def tail(var, entries):
    return XSeries((var,), {(e,): c for e, c in entries.items()})


def test_invert_identity():
    one = XSeries.one(("x",), 6)
    assert xseries_invert(one) == one


def test_invert_geometric():
    f = XSeries.one(("x",), 6) - tail("x", {-2: TPoly.t_power(1, 2)}).with_trunc(6)
    g = xseries_invert(f)
    assert g.coeff((0,)) == TPoly.const(1)
    assert g.coeff((-2,)) == TPoly.t_power(1, 2)
    assert g.coeff((-4,)) == TPoly.t_power(2, 4)
    assert g.coeff((-6,)) == TPoly.t_power(3, 8)


def test_invert_against_w01_denominator():
    # 1 - 2 x^-1 W_{0,1} with W_{0,1} = t/x + t^2/x^3 + ...
    f = XSeries.one(("x",), 4) - XSeries(("x",), {
        (-2,): TPoly.t_power(1, 2), (-4,): TPoly.t_power(2, 2)}, None, 4)
    g = xseries_invert(f)
    assert g.coeff((-2,)) == TPoly.t_power(1, 2)
    assert g.coeff((-4,)) == TPoly.t_power(2, 6)


def test_invert_times_f_is_one():
    rng = random.Random(3)
    for _ in range(10):
        entries = {-k: TPoly.t_power(rng.randint(0, 2), Fraction(rng.randint(-3, 3)))
                   for k in range(1, 4)}
        f = XSeries.one(("x",), 8) + XSeries(("x",), {(e,): c for e, c in entries.items()},
                                             None, 8)
        g = xseries_invert(f)
        assert (f * g) == XSeries.one(("x",), 8)


def test_invert_rejects_bad_constant():
    f = XSeries(("x",), {(0,): TPoly.const(2)}, None, 4)
    with pytest.raises(ValueError):
        xseries_invert(f)


def test_diag_monomials():
    f = XSeries(("u", "v"), {(-1, -1): TPoly.const(1)})
    out = xseries_diag(f, "u", "v", "x")
    assert out.coeff((-3,)) == TPoly.const(1)
    f2 = XSeries(("u", "v"), {(-2, -3): TPoly.const(1)})
    assert xseries_diag(f2, "u", "v", "x").coeff((-6,)) == TPoly.const(1)


def test_diag_termwise():
    f = XSeries(("u", "v"), {(-1, -1): TPoly.t_power(1),
                             (-1, -3): TPoly.t_power(2, 3)})
    out = xseries_diag(f, "u", "v", "x")
    assert out.coeff((-3,)) == TPoly.t_power(1)
    assert out.coeff((-5,)) == TPoly.t_power(2, 3)


def test_diag_keeps_spectator_variables():
    f = XSeries(("u", "v", "x2"), {(-1, -2, -4): TPoly.const(5)})
    out = xseries_diag(f, "u", "v", "x1")
    assert out.variables == ("x1", "x2")
    assert out.coeff((-4, -4)) == TPoly.const(5)


def test_diag_rejects_log():
    f = XSeries(("u", "v"), {(-1, -1): TPoly.const(1)}, {"u": TPoly.const(1)})
    with pytest.raises(ValueError):
        xseries_diag(f, "u", "v", "x")


def test_mul_of_tails_is_tail():
    a = XSeries(("x", "y"), {(-1, -2): TPoly.const(2)})
    b = XSeries(("x", "y"), {(-3, -1): TPoly.t_power(1)})
    prod = a * b
    assert prod.coeff((-4, -3)) == TPoly.t_power(1, 2)
    assert all(all(e < 0 for e in exps) for exps in prod.terms)


def test_mul_rejects_log_carriers():
    a = XSeries(("x",), {}, {"x": TPoly.const(1)})
    b = XSeries(("x",), {(-1,): TPoly.const(1)})
    with pytest.raises(ValueError):
        a * b


def test_diff_tail_and_log():
    s = XSeries(("x",), {(-2,): TPoly.t_power(1)}, {"x": TPoly.t_power(1, -1)})
    d = s.diff("x")
    # d/dx (-t log x + t x^-2) = -t/x - 2t x^-3
    assert d.coeff((-1,)) == TPoly.t_power(1, -1)
    assert d.coeff((-3,)) == TPoly.t_power(1, -2)
    assert not d.has_log()


def test_diff_poly_slot():
    s = XSeries(("x",), {(2,): TPoly.const(Fraction(1, 4))})
    assert s.diff("x").coeff((1,)) == TPoly.const(Fraction(1, 2))
    assert s.diff("x").diff("x").coeff((0,)) == TPoly.const(Fraction(1, 2))


def test_ring_axioms_random_tails():
    rng = random.Random(17)
    vars2 = ("x", "y")
    def rand():
        terms = {}
        for _ in range(4):
            e = (-rng.randint(1, 3), -rng.randint(1, 3))
            terms[e] = TPoly.t_power(rng.randint(0, 2), Fraction(rng.randint(-3, 3)))
        return XSeries(vars2, terms)
    for _ in range(15):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c


def test_rename_and_extend():
    a = XSeries(("x1",), {(-2,): TPoly.const(3)})
    b = a.rename({"x1": "u"})
    assert b.variables == ("u",)
    c = b.extend_vars(("u", "w"))
    assert c.coeff((-2, 0)) == TPoly.const(3)


def _product_reference(a, b):
    """All-pairs product; the constructor drops what lies past the bound."""
    a, b = XSeries._aligned(a, b)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, TPoly.zero()) + c1 * c2
    bounds = [x for x in (a.trunc, b.trunc) if x is not None]
    return XSeries(a.variables, out, None, min(bounds) if bounds else None)


@pytest.mark.parametrize("highest", [-1, 0, 2])
@pytest.mark.parametrize("trunc_a, trunc_b", [(None, None), (5, 5), (None, 4), (6, 3)])
def test_mul_matches_all_pairs(highest, trunc_a, trunc_b):
    # highest >= 0 adds constant and polynomial-slot exponents, where the
    # inverse degree of a product is not the sum of the factors' degrees
    rng = random.Random(100 * highest + 10 * (trunc_a or 0) + (trunc_b or 0))

    def rand(variables, trunc):
        terms = {}
        for _ in range(6):
            e = tuple(rng.randint(-4, highest) for _ in variables)
            terms[e] = TPoly.t_power(rng.randint(0, 2), Fraction(rng.randint(-3, 3)))
        return XSeries(variables, terms, None, trunc)

    for _ in range(20):
        a = rand(("x", "y"), trunc_a)
        b = rand(("y", "z"), trunc_b)
        prod = a * b
        ref = _product_reference(a, b)
        assert prod == ref
        assert prod.trunc == ref.trunc
