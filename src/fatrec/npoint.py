"""n-point functions W_{g,n}, their quadratic recursion, and the S-functions.

Two independent constructions of W_{g,n} are provided: assembly from
correlators (eq. coefficients <p_mu1...p_mun> = prod(mu) F_g^mu) and the
quadratic recursion driven by the transformation operator D and the diagonal
operator E, both divided by 1 - 2 x1^-1 W_{0,1} as formal tails.  The averaged
S-functions satisfy a Schroedinger-type identity checked order by order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .correlators import (CorrelatorCache, _partitions, _t_power,
                          gluing_count)
from .exact import TPoly, _norm, rat_str
from .virasoro import SuiteReport
from .xseries import XSeries, xseries_diag, xseries_invert


def _partitions_exact(total: int, parts: int):
    """Partitions of ``total`` into exactly ``parts`` positive parts, descending."""
    return [mu for mu in _partitions(total, parts) if len(mu) == parts]


def _xvars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def w_from_correlators(g: int, n: int, max_mu_weight: int,
                       cache: CorrelatorCache | None = None) -> XSeries:
    """W_{g,n} assembled termwise from correlators, |mu| <= max_mu_weight."""
    if n < 1 or g < 0:
        raise ValueError("invalid key")
    variables = _xvars(n)
    terms: dict[tuple[int, ...], TPoly] = {}
    if g == 0 and n == 1:
        terms[(-1,)] = TPoly.t_power(1)
    for w in range(n, max_mu_weight + 1):
        if w % 2:
            continue
        for part in _partitions_exact(w, n):
            count = gluing_count(g, part, cache)
            if not count:
                continue
            value = TPoly.t_power(_t_power(g, part), count)
            for mu in set(permutations(part)):
                terms[tuple(-m - 1 for m in mu)] = value
    return XSeries(variables, terms, None, None)


def _prune(f: XSeries, max_mu_weight: int) -> XSeries:
    """Check that every term is a pure tail and keep those with |mu| <= bound.

    The recursion's products are already truncated at |mu| <= bound, so the
    weight filter drops nothing there; the result carries no truncation.
    """
    n = len(f.variables)
    out = {}
    for e, c in f.terms.items():
        if any(x >= 0 for x in e):
            raise AssertionError("n-point term is not a pure tail")
        if -sum(e) - n <= max_mu_weight:
            out[e] = c
    return XSeries(f.variables, out, None, None)


def op_D(f: XSeries, target: str, max_inv_degree: int | None = None,
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


def w01_closed(max_mu_weight: int, cache: CorrelatorCache | None = None,
               var: str = "x1") -> XSeries:
    """W_{0,1} = t/x + sum C_m t^{m+1} x^-(2m+1): the Catalan tail."""
    return w_from_correlators(0, 1, max_mu_weight, cache).rename({"x1": var})


class NPointRecursion:
    """Evaluates the quadratic recursion cell by cell, memoized.

    Cells are ordered by increasing 2g - 2 + n; every intermediate keeps all
    terms with |mu| <= K, which is enough because each recursion step raises
    |mu| by at least 2.  For an n-variable cell |mu| <= K is inverse degree
    <= K + n, and every product is truncated there while it multiplies: all
    factors are pure tails and 1/(1 - 2 x1^-1 W_{0,1}) has terms of degree
    >= 0 only, so no term past the bound can contribute to one below it.
    """

    def __init__(self, max_mu_weight: int, cache: CorrelatorCache | None = None):
        self.k = max_mu_weight
        self.cache = cache
        self.cells: dict[tuple[int, int], XSeries] = {}
        w01 = w01_closed(self.k, cache)
        denom = XSeries.one(("x1",)) - (
            XSeries.term(("x1",), (-1,), TPoly.const(2)) * w01)
        # the inverse tail itself is capped at depth K+2; it carries no trunc,
        # so its product with num takes num's bound, inverse degree K + n
        self.inv_denom = xseries_invert(denom, trunc=self.k + 2).with_trunc(None)

    def cell(self, g: int, n: int) -> XSeries:
        if g < 0:
            raise ValueError("negative genus")
        key = (g, n)
        hit = self.cells.get(key)
        if hit is not None:
            return hit
        if key == (0, 1):
            value = w01_closed(self.k, self.cache)
        else:
            value = self._compute(g, n)
        self.cells[key] = value
        return value

    def _compute(self, g: int, n: int) -> XSeries:
        variables = _xvars(n)
        bound = self.k + n
        num = XSeries.zero(variables, bound)
        for j in range(2, n + 1):
            sub = self.cell(g, n - 1)
            others = ["x1"] + [f"x{i}" for i in range(2, n + 1) if i != j]
            sub = sub.rename({f"x{i + 1}": others[i] for i in range(n - 1)})
            num = num + op_D(sub, f"x{j}", bound)
        if g >= 1:
            sub = self.cell(g - 1, n + 1)
            names = {"x1": "u", "x2": "v"}
            names.update({f"x{i}": f"x{i - 1}" for i in range(3, n + 2)})
            sub = sub.rename(names)
            num = num + xseries_diag(sub, "u", "v", "x1")
        rest = list(range(2, n + 1))
        for bits in range(1 << len(rest)):
            subset = [rest[i] for i in range(len(rest)) if bits >> i & 1]
            comp = [i for i in rest if i not in subset]
            for g1 in range(0, g + 1):
                g2 = g - g1
                if (g1, len(subset)) == (0, 0) or (g2, len(comp)) == (0, 0):
                    continue
                left = self.cell(g1, len(subset) + 1).rename(
                    {"x1": "u", **{f"x{i + 2}": f"x{v}" for i, v in enumerate(subset)}})
                right = self.cell(g2, len(comp) + 1).rename(
                    {"x1": "v", **{f"x{i + 2}": f"x{v}" for i, v in enumerate(comp)}})
                # the diagonal adds 1 to the inverse degree
                num = num + xseries_diag(left.with_trunc(bound - 1) * right,
                                         "u", "v", "x1")
        w = self.inv_denom * num
        return _prune(w.extend_vars(variables), self.k)


def w_recursion(g: int, n: int, max_mu_weight: int,
                cache: CorrelatorCache | None = None) -> XSeries:
    """W_{g,n} evaluated through the quadratic recursion; (0,1) is the base."""
    if (g, n) == (0, 1):
        raise ValueError("base case")
    return NPointRecursion(max_mu_weight, cache).cell(g, n)


# ---------------------------------------------------------------------------
# Averaged S-functions and the Schroedinger-type identity
# ---------------------------------------------------------------------------

def _s_gn(g: int, n: int, max_mu_weight: int, cache: CorrelatorCache | None,
          zeroed: bool = False) -> XSeries:
    """S_{g,n}(x) = (1/n!) sum over ordered mu of F_g^mu x^-|mu|.

    The ordered sum collapses to partitions weighted 1/prod(mult!).  The
    (0,1) cell carries the log slot -t log x; its sign is pinned by the
    m = 0 identity (see decisions ledger).
    """
    terms: dict[tuple[int, ...], TPoly] = {}
    logc = None
    if (g, n) == (0, 1) and not zeroed:
        logc = {"x": TPoly.t_power(1, -1)}
    for w in range(n, max_mu_weight + 1):
        if w % 2:
            continue
        parts = _partitions_exact(w, n)
        total = sum(Fraction(gluing_count(g, part, cache), _norm(part))
                    for part in parts)
        if total and not zeroed:
            # all n-part mu of size w share one t-power
            terms[(-w,)] = TPoly.t_power(_t_power(g, parts[0]), total)
    if zeroed:
        terms = {}
    return XSeries(("x",), terms, logc, None)


def s_function(m: int, max_mu_weight: int,
               cache: CorrelatorCache | None = None, zeroed: bool = False) -> XSeries:
    """S_m = sum over 2g - 1 + n = m of S_{g,n}."""
    if m < 0:
        raise ValueError("level must be >= 0")
    out = XSeries.zero(("x",))
    for g in range(0, (m + 1) // 2 + 1):
        n = m + 1 - 2 * g
        if n >= 1:
            out = out + _s_gn(g, n, max_mu_weight, cache, zeroed)
    return out


def qsc_residual(m_max: int, max_order: int,
                 cache: CorrelatorCache | None = None,
                 zeroed: bool = False) -> SuiteReport:
    """Order-by-order check of the quantum-curve identities for the S_m.

    Unshifted form: x S_m' + S_{m-1}'' + sum_{i+j=m} S_i' S_j' + t d_{m,0} = 0
    for x-powers down to -(max_order - 2).  The shifted form is checked with
    the corrected operator carrying the extra -hbar/2; the discrepancy of the
    displayed shifted equation is recorded in the report notes.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    s = [s_function(m, max_order, cache, zeroed) for m in range(m_max + 1)]
    ds = [f.diff("x") for f in s]
    dds = [f.diff("x") for f in ds]
    x_var = ("x",)
    t_term = XSeries.term(x_var, (0,), TPoly.t_power(1))
    violations = []

    def record(tag: str, m: int, res: XSeries):
        for e, c in sorted(res.terms.items()):
            if e[0] >= -(max_order - 2) and not c.is_zero():
                violations.append({"form": tag, "m": m, "x_power": e[0],
                                   "coeff": str(c)})

    for m in range(m_max + 1):
        res = XSeries.term(x_var, (1,), TPoly.const(1)) * ds[m]
        if m >= 1:
            res = res + dds[m - 1]
        for i in range(m + 1):
            res = res + ds[i] * ds[m - i]
        if m == 0:
            res = res + t_term
        record("unshifted", m, res)

    # Shifted form: S~_0 = S_0 + x^2/4; operator hbar^2 d^2 - x^2/4 + t - hbar/2.
    half_x = XSeries.term(x_var, (1,), TPoly.const(Fraction(1, 2)))
    ds_sh = [ds[m] + half_x if m == 0 else ds[m] for m in range(m_max + 1)]
    dds_sh = [dds[m] + XSeries.term(x_var, (0,), TPoly.const(Fraction(1, 2)))
              if m == 0 else dds[m] for m in range(m_max + 1)]
    notes = []
    for m in range(m_max + 1):
        if m == 0:
            res = ds_sh[0] * ds_sh[0] \
                - XSeries.term(x_var, (2,), TPoly.const(Fraction(1, 4))) + t_term
        else:
            res = dds_sh[m - 1]
            for i in range(m + 1):
                res = res + ds_sh[i] * ds_sh[m - i]
            if m == 1:
                uncorrected = res.coeff((0,))
                notes.append(
                    "displayed shifted equation leaves the constant "
                    f"{uncorrected} at order hbar; corrected operator "
                    "subtracts hbar/2")
                res = res - XSeries.term(x_var, (0,), TPoly.const(Fraction(1, 2)))
        record("shifted", m, res)

    status = "pass" if not violations else "fail"
    return SuiteReport("qsc", {"m_max": m_max, "K": max_order}, status,
                       violations, notes)


def xseries_to_json_terms(f: XSeries) -> list[dict]:
    """Render tail terms as [{"exps": [...], "coeff": "p/q", "t_power": k}]."""
    out = []
    for e in sorted(f.terms):
        poly = f.terms[e]
        for t_power in sorted(poly.terms):
            out.append({"exps": list(e), "coeff": rat_str(poly.terms[t_power]),
                        "t_power": t_power})
    return out
