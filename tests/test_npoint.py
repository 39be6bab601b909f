"""n-point functions: both constructions, the D operator, S-functions, QSC."""

from fractions import Fraction
from itertools import permutations

import pytest

from fatrec.exact import TPoly
from fatrec.npoint import (NPointRecursion, op_D, qsc_residual, s_function,
                           w_from_correlators, w_recursion, w01_closed)
from fatrec.xseries import XSeries, _inv_degree


def tp(e, c=1):
    return TPoly.t_power(e, Fraction(c))


def test_w01_catalan_tail():
    w = w_from_correlators(0, 1, 9)
    assert w.coeff((-1,)) == tp(1)
    assert w.coeff((-3,)) == tp(2)
    assert w.coeff((-5,)) == tp(3, 2)
    assert w.coeff((-7,)) == tp(4, 5)
    assert w.coeff((-9,)) == tp(5, 14)


def test_w02_fixture_coefficients():
    w = w_from_correlators(0, 2, 6)
    assert w.coeff((-3, -3)) == tp(2, 2)
    assert w.coeff((-2, -4)) == tp(2, 3)
    assert w.coeff((-2, -2)) == tp(1, 1)


def test_w11_fixture():
    assert w_from_correlators(1, 1, 8).coeff((-5,)) == tp(1, 1)


def test_op_D_monomials():
    f = XSeries(("x1",), {(-1,): TPoly.const(1)})
    assert op_D(f, "xj").terms == {(-2, -2): TPoly.const(1)}
    f3 = XSeries(("x1",), {(-3,): TPoly.const(1)})
    out = op_D(f3, "xj")
    assert out.coeff((-4, -2)) == TPoly.const(1)
    assert out.coeff((-3, -3)) == TPoly.const(2)
    assert out.coeff((-2, -4)) == TPoly.const(3)
    f2 = XSeries(("x1",), {(-2,): TPoly.const(1)})
    out2 = op_D(f2, "xj")
    assert out2.coeff((-3, -2)) == TPoly.const(1)
    assert out2.coeff((-2, -3)) == TPoly.const(2)


def test_op_D_rejects_log():
    f = XSeries(("x1",), {(-1,): TPoly.const(1)}, {"x1": TPoly.const(1)})
    with pytest.raises(ValueError):
        op_D(f, "xj")


def test_w_recursion_rejects_base_case():
    with pytest.raises(ValueError, match="base case"):
        w_recursion(0, 1, 6)


def test_w02_reference_expansion_via_recursion():
    w = w_recursion(0, 2, 6)
    expected = {
        (-2, -2): tp(1, 1),
        (-2, -4): tp(2, 3), (-4, -2): tp(2, 3), (-3, -3): tp(2, 2),
        (-2, -6): tp(3, 10), (-6, -2): tp(3, 10),
        (-3, -5): tp(3, 8), (-5, -3): tp(3, 8), (-4, -4): tp(3, 12),
    }
    for e, val in expected.items():
        assert w.coeff(e) == val, e


@pytest.mark.parametrize("k", [10, 12])
def test_cross_construction_equality(k):
    rec = NPointRecursion(k)
    for (g, n) in [(0, 2), (0, 3), (1, 1), (1, 2), (2, 1)]:
        assert rec.cell(g, n) == w_from_correlators(g, n, k), (g, n)


def test_w03_three_point_fixture():
    w = w_from_correlators(0, 3, 6)
    assert w.coeff((-3, -2, -2)) == tp(1, 2)  # <p2 p1 p1> = 2t


def test_symmetry_under_variable_permutation():
    w = w_from_correlators(0, 3, 8)
    for e in w.terms:
        for p in permutations(range(3)):
            pe = tuple(e[i] for i in p)
            assert w.coeff(pe) == w.coeff(e)


def test_exponent_bound():
    # all exponents <= -2 except the special t/x term of W_{0,1}
    for (g, n) in [(0, 1), (0, 2), (1, 1), (1, 2)]:
        w = w_from_correlators(g, n, 8)
        for e in w.terms:
            if (g, n) == (0, 1) and e == (-1,):
                continue
            assert all(x <= -2 for x in e), (g, n, e)


def test_s0_series():
    s = s_function(0, 8)
    assert s.log_coeff["x"] == TPoly.t_power(1, -1)  # -t log x
    assert s.coeff((-2,)) == tp(2, Fraction(1, 2))
    assert s.coeff((-4,)) == tp(3, Fraction(1, 2))
    assert s.coeff((-6,)) == tp(4, Fraction(5, 6))


def test_s0_derivative_is_minus_w01():
    s = s_function(0, 8)
    w = w01_closed(8, var="x")
    d = s.diff("x")
    assert (d + w).is_zero()


def test_s1_series():
    s = s_function(1, 6)
    assert s.coeff((-2,)) == tp(1, Fraction(1, 2))
    assert s.coeff((-4,)) == tp(2, Fraction(5, 4))


def test_s2_leading_term():
    # x^-4 coefficient: F_1^(4) + (1/3!) * 3 * F_0^(2,1,1) = t/4 + t/2
    s = s_function(2, 6)
    assert s.coeff((-4,)) == tp(1, Fraction(3, 4))


def test_qsc_passes():
    report = qsc_residual(1, 6)
    assert report.passed
    assert any("hbar" in note for note in report.notes)


def test_qsc_m0_reduces_to_catalan_quadratic():
    assert qsc_residual(0, 8).passed


def test_qsc_negative_control():
    # with every generating function zeroed only the bare t term survives
    report = qsc_residual(0, 6, zeroed=True)
    assert not report.passed
    assert {"form": "unshifted", "m": 0, "x_power": 0,
            "coeff": "t"} in report.violations


def test_qsc_rejects_negative_level():
    with pytest.raises(ValueError):
        qsc_residual(-1, 6)


def test_cross_construction_smaller_truncation():
    rec = NPointRecursion(7)
    for (g, n) in [(0, 2), (1, 1), (0, 3)]:
        assert rec.cell(g, n) == w_from_correlators(g, n, 7), (g, n)


def test_cross_construction_higher_cells():
    # beyond the required cell list; empty cells must agree as empty
    rec = NPointRecursion(8)
    for (g, n) in [(0, 4), (1, 3), (2, 2)]:
        assert rec.cell(g, n) == w_from_correlators(g, n, 8), (g, n)


def test_recursion_products_stop_at_the_bound(monkeypatch):
    # |mu| <= K on n variables is inverse degree <= K + n; no product the
    # recursion forms may hold a term past that, not even for a moment
    rec = NPointRecursion(10)
    seen = []
    mul = XSeries.__mul__

    def recording_mul(self, other):
        out = mul(self, other)
        if out.terms:
            seen.append((max(_inv_degree(e) for e in out.terms), len(out.variables)))
        return out

    monkeypatch.setattr(XSeries, "__mul__", recording_mul)
    cell = rec.cell(0, 4)
    monkeypatch.undo()
    assert seen
    assert all(degree <= 10 + n for degree, n in seen), seen
    assert cell == w_from_correlators(0, 4, 10)
