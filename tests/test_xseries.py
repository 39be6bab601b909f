"""Inverse-power tails: inversion, diagonal substitution, differentiation."""

import random

import pytest
from fractions import Fraction

from fatrec.exact import TPoly
from fatrec.xseries import (XSeries, _inv_degree, xseries_diag,
                            xseries_invert)

Expo = tuple[int, ...]


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


# The TPoly-coefficient implementations that the flat integer keys replaced,
# copied unchanged as references; they reach the series only through the
# public constructor and the ``terms``/``log_coeff``/``coeff`` views.

def _mul_reference(self, other) -> "XSeries":
    if isinstance(other, (int, Fraction, TPoly)):
        return self.scale(other)
    if self.has_log() or other.has_log():
        raise ValueError("cannot multiply series carrying log slots")
    a, b = XSeries._aligned(self, other)
    trunc = self._min_trunc(a.trunc, b.trunc)
    # b's terms grouped by -sum(e), lowest first.  -sum(e) is additive and
    # bounds _inv_degree from below (equal on tails), so each e1 stops at
    # the first group whose products all lie past the truncation.
    groups: dict[int, list[tuple[Expo, TPoly]]] = {}
    for e2, c2 in b.terms.items():
        groups.setdefault(-sum(e2), []).append((e2, c2))
    by_degree = sorted(groups.items())
    out: dict[Expo, TPoly] = {}
    for e1, c1 in a.terms.items():
        room = None if trunc is None else trunc + sum(e1)
        for d2, group in by_degree:
            if room is not None and d2 > room:
                break
            for e2, c2 in group:
                e = tuple(x + y for x, y in zip(e1, e2))
                if trunc is not None and _inv_degree(e) > trunc:
                    continue
                s = out.get(e, TPoly.zero()) + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
    return XSeries(a.variables, out, None, trunc)


def _diff_reference(self, var: str) -> "XSeries":
    """d/d var; the log slot c*log(var) contributes c*var^-1."""
    i = self.variables.index(var)
    out: dict[Expo, TPoly] = {}
    for e, c in self.terms.items():
        if e[i] == 0:
            continue
        e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
        s = out.get(e2, TPoly.zero()) + c * Fraction(e[i])
        if s.is_zero():
            out.pop(e2, None)
        else:
            out[e2] = s
    logs = dict(self.log_coeff)
    c = logs.pop(var, None)
    if c is not None:
        e2 = tuple(-1 if j == i else 0 for j in range(len(self.variables)))
        s = out.get(e2, TPoly.zero()) + c
        if s.is_zero():
            out.pop(e2, None)
        else:
            out[e2] = s
    trunc = None if self.trunc is None else self.trunc + 1
    return XSeries(self.variables, out, logs, trunc)


def _invert_reference(f: XSeries, trunc: int | None = None) -> XSeries:
    """Invert f = 1 + (pure tail in one variable) up to the truncation."""
    if f.has_log():
        raise ValueError("cannot invert a series with log slots")
    n = len(f.variables)
    zero = (0,) * n
    if f.coeff(zero) != TPoly.const(1):
        raise ValueError("constant term must be 1")
    active = set()
    for e in f.terms:
        if e == zero:
            continue
        if any(x > 0 for x in e):
            raise ValueError("not a pure tail")
        for i, x in enumerate(e):
            if x:
                active.add(i)
    if len(active) > 1:
        raise ValueError("tail must involve a single variable")
    if trunc is None:
        trunc = f.trunc
    if trunc is None:
        raise ValueError("a truncation is required to invert")
    h = (f - XSeries.one(f.variables)).with_trunc(trunc)
    out = XSeries.one(f.variables, trunc)
    power = XSeries.one(f.variables, trunc)
    while True:
        power = power * (-h)
        if power.is_zero():
            break
        out = out + power
    return out


def _diag_reference(f: XSeries, u: str, v: str, x: str) -> XSeries:
    """Substitute u = v = x on a tail and multiply by x^-1.

    The substitution is the exact b -> c limit on polynomial tails; a log slot
    in u or v has no such limit in this representation and is rejected.
    """
    if u in f.log_coeff or v in f.log_coeff:
        raise ValueError("limit undefined on log slots")
    iu = f.variables.index(u)
    iv = f.variables.index(v)
    keep = [i for i in range(len(f.variables)) if i not in (iu, iv)]
    new_vars = tuple(f.variables[i] for i in keep)
    if x not in new_vars:
        new_vars = (x,) + new_vars
        keep = [None] + keep
    ix = new_vars.index(x)
    out: dict[Expo, TPoly] = {}
    for e, c in f.terms.items():
        new_e = [0 if i is None else e[i] for i in keep]
        new_e[ix] += e[iu] + e[iv] - 1
        key = tuple(new_e)
        s = out.get(key, TPoly.zero()) + c
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    trunc = None if f.trunc is None else f.trunc + 1
    return XSeries(new_vars, out, {w: c for w, c in f.log_coeff.items()}, trunc)


def _add_reference(self, other: "XSeries") -> "XSeries":
    a, b = XSeries._aligned(self, other)
    out = dict(a.terms)
    for e, c in b.terms.items():
        s = out.get(e, TPoly.zero()) + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    logs = dict(a.log_coeff)
    for v, c in b.log_coeff.items():
        s = logs.get(v, TPoly.zero()) + c
        if s.is_zero():
            logs.pop(v, None)
        else:
            logs[v] = s
    return XSeries(a.variables, out, logs, self._min_trunc(a.trunc, b.trunc))


def _scale_reference(self, c) -> "XSeries":
    if not isinstance(c, TPoly):
        c = TPoly.const(c)
    return XSeries(self.variables, {e: k * c for e, k in self.terms.items()},
                   {v: k * c for v, k in self.log_coeff.items()}, self.trunc)


def _random_series(rng, variables, trunc=None, highest=-1, logs=False):
    """Mixed t-powers, Fraction coefficients, optional polynomial and log slots."""
    def poly():
        return TPoly({rng.randint(0, 3): Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                      for _ in range(rng.randint(1, 3))})
    terms = {tuple(rng.randint(-4, highest) for _ in variables): poly()
             for _ in range(rng.randint(0, 7))}
    log_coeff = {v: poly() for v in variables if logs and rng.random() < 0.5}
    return XSeries(variables, terms, log_coeff, trunc)


TRUNCS = [(None, None), (5, 5), (None, 4), (6, 3)]


def _held_exactly(f):
    """Every coefficient is an int, or a Fraction only where not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for part in (f._c, f._log) for v in part.values())


@pytest.mark.parametrize("highest", [-1, 0, 2])
@pytest.mark.parametrize("trunc_a, trunc_b", TRUNCS)
def test_mul_matches_reference(highest, trunc_a, trunc_b):
    rng = random.Random(f"mul/{highest}/{trunc_a}/{trunc_b}")
    for _ in range(30):
        a = _random_series(rng, ("x", "y"), trunc_a, highest)
        b = _random_series(rng, ("y", "z"), trunc_b, highest)
        for left, right in ((a, b), (b, a), (a, a)):
            got, want = left * right, _mul_reference(left, right)
            assert got == want and got.trunc == want.trunc and _held_exactly(got)
            assert got.terms == want.terms
        scalar = rng.choice((3, Fraction(-2, 3), TPoly({0: 1, 2: Fraction(1, 2)})))
        assert a * scalar == _mul_reference(a, scalar)
        if not isinstance(scalar, TPoly):  # TPoly * XSeries is TPoly's own affair
            assert scalar * a == a * scalar
    with_log = _random_series(rng, ("x",), trunc_a, highest, logs=True)
    if with_log.has_log():
        for op in (lambda s, t: s * t, _mul_reference):
            with pytest.raises(ValueError):
                op(with_log, with_log)


@pytest.mark.parametrize("highest", [-1, 2])
@pytest.mark.parametrize("trunc", [None, -1, 0, 5])
def test_diff_matches_reference(highest, trunc):
    rng = random.Random(f"diff/{highest}/{trunc}")
    for _ in range(40):
        f = _random_series(rng, ("x", "y"), trunc, highest, logs=True)
        for var in ("x", "y"):
            got, want = f.diff(var), _diff_reference(f, var)
            assert got == want and got.trunc == want.trunc and _held_exactly(got)
            assert got.log_coeff == want.log_coeff


@pytest.mark.parametrize("highest", [-1, 2])
@pytest.mark.parametrize("trunc", [None, 4, 7])
def test_diag_matches_reference(highest, trunc):
    rng = random.Random(f"diag/{highest}/{trunc}")
    for _ in range(40):
        f = _random_series(rng, ("u", "w", "v"), trunc, highest)
        if rng.random() < 0.5:
            f = f + XSeries(("w",), {}, {"w": rng.randint(1, 3)})
        for x in ("x", "w"):
            got, want = xseries_diag(f, "u", "v", x), _diag_reference(f, "u", "v", x)
            assert got == want and got.variables == want.variables
            assert got.trunc == want.trunc and _held_exactly(got)


@pytest.mark.parametrize("trunc_f, trunc", [(None, 6), (6, None), (8, 5), (4, 9)])
def test_invert_matches_reference(trunc_f, trunc):
    rng = random.Random(f"invert/{trunc_f}/{trunc}")
    for variables in (("x",), ("x", "y")):
        for _ in range(15):
            tail = {(-rng.randint(1, 4),) + (0,) * (len(variables) - 1): TPoly(
                {rng.randint(0, 2): Fraction(rng.randint(-3, 3), rng.randint(1, 3))})
                for _ in range(rng.randint(0, 3))}
            f = XSeries(variables, {(0,) * len(variables): 1, **tail}, None, trunc_f)
            got, want = xseries_invert(f, trunc), _invert_reference(f, trunc)
            assert got == want and got.trunc == want.trunc and _held_exactly(got)


def test_invert_rejections_match_reference():
    bad = [XSeries(("x",), {(0,): TPoly({0: 1, 1: 1})}, None, 4),
           XSeries(("x",), {(0,): 1, (1,): 1}, None, 4),
           XSeries(("x", "y"), {(0, 0): 1, (-1, 0): 1, (0, -1): 1}, None, 4),
           XSeries(("x",), {(0,): 1, (-1,): 1}),
           XSeries(("x",), {(0,): 1}, {"x": 1}, 4)]
    for f in bad:
        for invert in (xseries_invert, _invert_reference):
            with pytest.raises(ValueError):
                invert(f)


def test_flat_keys_at_the_boundary():
    f = XSeries(("x", "y"), {(-1, -2): TPoly({0: Fraction(4, 2), 3: Fraction(1, 3)}),
                             (-5, 0): 7}, {"y": TPoly.t_power(1, -1)}, 4)
    assert f._c == {(-1, -2, 0): 2, (-1, -2, 3): Fraction(1, 3)}
    assert type(f._c[(-1, -2, 0)]) is int
    assert f._log == {("y", 1): -1}
    assert f.terms == {(-1, -2): TPoly({0: 2, 3: Fraction(1, 3)})}
    assert f.log_coeff == {"y": TPoly.t_power(1, -1)}
    assert f.coeff((-1, -2)) == TPoly({0: 2, 3: Fraction(1, 3)})
    assert f.coeff((-5, 0)) == TPoly.zero()
    assert all(_inv_degree(k) == _inv_degree(k[:-1]) for k in f._c)


def test_foreign_operands_raise_type_error():
    f = XSeries(("x",), {(-1,): 1})
    for op in (lambda: f + 1, lambda: 1 + f, lambda: f - 1, lambda: 1 - f,
               lambda: f * "s", lambda: "s" * f, lambda: f * None, lambda: f + None):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("trunc_a, trunc_b", TRUNCS)
def test_add_and_scale_match_reference(trunc_a, trunc_b):
    rng = random.Random(f"add/{trunc_a}/{trunc_b}")
    for _ in range(40):
        a = _random_series(rng, ("x", "y"), trunc_a, 2, logs=True)
        b = _random_series(rng, ("y", "z"), trunc_b, 2, logs=True)
        for left, right in ((a, b), (b, a), (a, -a)):
            got, want = left + right, _add_reference(left, right)
            assert got == want and got.trunc == want.trunc and _held_exactly(got)
            assert got.variables == want.variables
        assert a - b == _add_reference(a, _scale_reference(b, -1))
        for scalar in (0, 3, Fraction(-3, 2), TPoly({0: 1, 2: Fraction(1, 2)})):
            got = a.scale(scalar)
            assert got == _scale_reference(a, scalar) and _held_exactly(got)


@pytest.mark.parametrize("trunc", [None, 2, 5, 9])
def test_with_trunc_cuts_like_the_constructor(trunc):
    rng = random.Random(f"with_trunc/{trunc}")
    for own in (None, 3, 6):
        for _ in range(20):
            f = _random_series(rng, ("x", "y"), own, 2, logs=True)
            got = f.with_trunc(trunc)
            assert got == XSeries(f.variables, f.terms, f.log_coeff, trunc)
            assert got.trunc == trunc
