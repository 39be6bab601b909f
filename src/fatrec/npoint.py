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
from math import lcm

from .correlators import (CorrelatorCache, _cell, _partitions, _session_cache,
                          _t_power)
from .exact import TPoly, _norm, rat_str
from .virasoro import SuiteReport
from .xseries import XSeries, _accumulate, _nonzero, xseries_diag, xseries_invert


def _xvars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def w_from_correlators(g: int, n: int, max_mu_weight: int,
                       cache: CorrelatorCache | None = None) -> XSeries:
    """W_{g,n} assembled termwise from correlators, |mu| <= max_mu_weight."""
    if n < 1 or g < 0:
        raise ValueError("invalid key")
    cache = _session_cache if cache is None else cache
    terms = {(-1, 1): 1} if (g, n) == (0, 1) else {}
    for w in range(n, max_mu_weight + 1):
        if w % 2:
            continue
        for part in _partitions(w, n, exact=True):  # valid keys: read the cells
            count = _cell(g, part, cache)
            if not count:
                continue
            t_power = _t_power(g, part)
            for mu in set(permutations(part)):
                terms[(*(-m - 1 for m in mu), t_power)] = count
    return XSeries._of(_xvars(n), terms)


def _prune(f: XSeries, max_mu_weight: int) -> XSeries:
    """Check that every term is a pure tail and keep those with |mu| <= bound
    (the recursion's products already stop there); the result has no trunc."""
    if any(max(k[:-1]) >= 0 for k in f._c):
        raise AssertionError("n-point term is not a pure tail")
    bound = max_mu_weight + len(f.variables)
    return XSeries._of(f.variables, {k: c for k, c in f._c.items() if k[-1] - sum(k) <= bound})


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
    out: dict = {}
    for key, c in f._c.items():
        m = -key[i] - 1
        if m < 0:
            raise ValueError("terms must be a tail in the source variable")
        # every image has inverse degree -sum(e) + 3
        if max_inv_degree is not None and key[-1] - sum(key) + 3 > max_inv_degree:
            continue
        head, mid, t = key[:i], key[i + 1:-1], key[-1]
        for l in range(m + 1):  # an image determines its term: no sums
            out[(*head, l - m - 2, *mid, -(l + 2), t)] = c * (l + 1)
    return XSeries._of(f.variables + (target,), _nonzero(out))


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
        denom = XSeries.one(("x1",)) - XSeries.term(("x1",), (-1,), 2) * w01
        # the inverse tail itself is capped at depth K+2; it carries no trunc,
        # so its product with num takes num's bound, inverse degree K + n
        self.inv_denom = xseries_invert(denom, trunc=self.k + 2).with_trunc(None)

    def cell(self, g: int, n: int) -> XSeries:
        if n < 1:
            raise ValueError("invalid key")
        if g < 0:
            raise ValueError("negative genus")
        key = (g, n)
        if key not in self.cells:
            self.cells[key] = (w01_closed(self.k, self.cache) if key == (0, 1)
                               else self._compute(g, n))
        return self.cells[key]

    def _compute(self, g: int, n: int) -> XSeries:
        variables = _xvars(n)
        bound = self.k + n
        num: dict = {}  # the numerator, cut at the bound as it is summed
        for j in range(2, n + 1):
            others = ["x1"] + [f"x{i}" for i in range(2, n + 1) if i != j]
            sub = self.cell(g, n - 1).rename({f"x{i + 1}": others[i] for i in range(n - 1)})
            _accumulate(num, op_D(sub, f"x{j}", bound), variables)  # cut by op_D
        if g >= 1:
            sub = self.cell(g - 1, n + 1).rename(
                {"x1": "u", "x2": "v", **{f"x{i}": f"x{i - 1}" for i in range(3, n + 2)}})
            _accumulate(num, xseries_diag(sub, "u", "v", "x1"), variables, bound)
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
                _accumulate(num, xseries_diag(left.with_trunc(bound - 1) * right,
                                              "u", "v", "x1"), variables, bound)
        w = self.inv_denom * XSeries._of(variables, _nonzero(num), None, bound)
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

    The ordered sum collapses to partitions weighted 1/prod(mult!), summed over
    one common denominator.  The (0,1) cell carries the log slot -t log x, so
    x S_0' starts with -t and cancels the + t of the m = 0 identity
    x S_0' + S_0'^2 + t = 0 at x^0; the sign + would leave 2t there."""
    cache = _session_cache if cache is None else cache
    terms = {}
    logs = {("x", 1): -1} if (g, n) == (0, 1) and not zeroed else None
    for w in range(n, max_mu_weight + 1):
        if w % 2:
            continue
        parts = list(_partitions(w, n, exact=True))
        norms = [_norm(part) for part in parts]
        den = lcm(*norms)
        num = sum(_cell(g, part, cache) * (den // d)
                  for part, d in zip(parts, norms))
        if num and not zeroed:
            # all n-part mu of size w share one t-power
            terms[(-w, _t_power(g, parts[0]))] = Fraction(num, den)
    return XSeries._of(("x",), _nonzero(terms), logs)


def s_function(m: int, max_mu_weight: int,
               cache: CorrelatorCache | None = None, zeroed: bool = False) -> XSeries:
    """S_m = sum over 2g - 1 + n = m of S_{g,n}."""
    if m < 0:
        raise ValueError("level must be >= 0")
    return sum((_s_gn(g, m + 1 - 2 * g, max_mu_weight, cache, zeroed)
                for g in range(m // 2 + 1)), XSeries.zero(("x",)))


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
        for e in sorted({k[:-1] for k in res._c if k[0] >= -(max_order - 2)}):
            violations.append({"form": tag, "m": m, "x_power": e[0],
                               "coeff": str(res.coeff(e))})

    for m in range(m_max + 1):
        res = XSeries.term(x_var, (1,), 1) * ds[m]
        if m >= 1:
            res = res + dds[m - 1]
        for i in range(m + 1):
            res = res + ds[i] * ds[m - i]
        if m == 0:
            res = res + t_term
        record("unshifted", m, res)

    # Shifted form: S~_0 = S_0 + x^2/4; operator hbar^2 d^2 - x^2/4 + t - hbar/2.
    half = Fraction(1, 2)
    half_x = XSeries.term(x_var, (1,), half)
    ds_sh = [ds[0] + half_x, *ds[1:]]
    dds_sh = [dds[0] + XSeries.term(x_var, (0,), half), *dds[1:]]
    notes = []
    for m in range(m_max + 1):
        if m == 0:
            res = ds_sh[0] * ds_sh[0] - XSeries.term(x_var, (2,), half * half) + t_term
        else:
            res = dds_sh[m - 1]
            for i in range(m + 1):
                res = res + ds_sh[i] * ds_sh[m - i]
            if m == 1:
                notes.append("displayed shifted equation leaves the constant "
                             f"{res.coeff((0,))} at order hbar; corrected operator "
                             "subtracts hbar/2")
                res = res - XSeries.term(x_var, (0,), half)
        record("shifted", m, res)

    status = "pass" if not violations else "fail"
    return SuiteReport("qsc", {"m_max": m_max, "K": max_order}, status,
                       violations, notes)


def xseries_to_json_terms(f: XSeries) -> list[dict]:
    """Render tail terms as [{"exps": [...], "coeff": "p/q", "t_power": k}]."""
    return [{"exps": list(k[:-1]), "coeff": rat_str(f._c[k]), "t_power": k[-1]}
            for k in sorted(f._c)]
