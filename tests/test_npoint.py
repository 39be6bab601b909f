"""n-point functions: both constructions, the D operator, S-functions, QSC."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

import fatrec.npoint as npoint
from fatrec.correlators import CorrelatorCache
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


# op_D as it was on TPoly coefficients, copied unchanged as the reference.
def _op_D_reference(f: XSeries, target: str, max_inv_degree: int | None = None,
                      source: str = "x1") -> XSeries:
    """Monomial transformation realizing the vertex-splitting kernel:

    x1^-(m+1) -> sum_{k+l=m} (l+1) x1^-(k+2) target^-(l+2), other variables
    untouched; linear over terms.  Log slots are rejected.
    """
    if f.has_log():
        raise ValueError("log slot present")
    if target in f.variables:
        raise ValueError("target variable already present")
    i = f.variables.index(source)
    variables = f.variables + (target,)
    out: dict[tuple[int, ...], TPoly] = {}
    for e, c in f.terms.items():
        m = -e[i] - 1
        if m < 0:
            raise ValueError("terms must be a tail in the source variable")
        for k in range(m + 1):
            l = m - k
            new_e = list(e) + [-(l + 2)]
            new_e[i] = -(k + 2)
            if max_inv_degree is not None and -sum(new_e) > max_inv_degree:
                continue
            key = tuple(new_e)
            s = out.get(key, TPoly.zero()) + c * Fraction(l + 1)
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return XSeries(variables, out, None, None)


@pytest.mark.parametrize("bound", [None, 6, 9])
def test_op_D_matches_reference(bound):
    rng = random.Random(f"op_D/{bound}")
    for _ in range(40):
        terms = {(-rng.randint(1, 5), rng.randint(-4, 2)): TPoly(
            {rng.randint(0, 3): Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
            for _ in range(rng.randint(0, 6))}
        f = XSeries(("x1", "x2"), terms)
        got, want = op_D(f, "x3", bound), _op_D_reference(f, "x3", bound)
        assert got == want and got.variables == want.variables
        assert all(type(v) is int or v.denominator != 1 for v in got._c.values())
        assert got.trunc is want.trunc is None


def test_npoint_coefficients_are_ints():
    cache = CorrelatorCache()
    rec = NPointRecursion(12, cache)
    for g, n in [(0, 2), (0, 3), (1, 1), (1, 2), (2, 1), (1, 3), (0, 4)]:
        rec.cell(g, n)
    for (g, n), cell in rec.cells.items():
        assert cell._c and all(type(v) is int for v in cell._c.values()), (g, n)
        direct = w_from_correlators(g, n, 12, cache)
        assert all(type(v) is int for v in direct._c.values()), (g, n)
        assert cell == direct


def test_recursion_calls_no_tpoly_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("TPoly arithmetic in the n-point recursion")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__"):
        monkeypatch.setattr(TPoly, name, refuse)
    cell = NPointRecursion(10).cell(0, 4)
    monkeypatch.undo()
    assert cell == w_from_correlators(0, 4, 10)


@pytest.mark.parametrize("g", [0, 1])
def test_recursion_rejects_n_below_one(g):
    rec = NPointRecursion(6)
    with pytest.raises(ValueError, match="invalid key"):
        rec.cell(g, 0)
    assert rec.cells == {}
    with pytest.raises(ValueError, match="invalid key"):
        w_from_correlators(g, 0, 6)


@pytest.mark.parametrize("power, reported", [(6, True), (7, False)])
def test_qsc_reports_down_to_x_power_two_above_K(monkeypatch, power, reported):
    # a stray c x^-p in S_0 shows up first in x S_0' at x^-p, which the
    # check reads down to x^-(K - 2)
    real = npoint.s_function

    def perturbed(m, k, cache=None, zeroed=False):
        s = real(m, k, cache, zeroed)
        return s + XSeries.term(("x",), (-power,), 1) if m == 0 else s

    monkeypatch.setattr(npoint, "s_function", perturbed)
    report = qsc_residual(0, 8)
    powers = {v["x_power"] for v in report.violations if v["form"] == "unshifted"}
    assert (-power in powers) is reported
    assert powers and min(powers) >= -6 if reported else not powers
