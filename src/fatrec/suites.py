"""Named verification suites shared by the CLI and the acceptance tests.

Each suite returns a SuiteReport whose ``violations`` list is empty exactly
when the checked identity holds at the requested bounds.  Bounds that leave
the abstract-rec, oracle, virasoro, commutators, heisenberg, cutjoin or
npoint suite nothing to check raise ValueError, so these do not pass
vacuously.
"""

from __future__ import annotations

import random
from itertools import combinations

from .correlators import (CorrelatorCache, _partitions, correlator,
                          max_feasible_genus, partition_function)
from .cutjoin import exp_M_vacuum
from .exact import CouplingMonomial, TPoly
from .graphsum import oracle_correlators_all_genus, verify_abstract_recursion
from .npoint import qsc_residual, w_from_correlators, NPointRecursion
from .virasoro import (SuiteReport, _require_checks, commutator_check,
                       heisenberg_check, spectral_curve_check, verify_virasoro,
                       y_squared_negative_part)


def abstract_recursion_suite(max_size: int = 8, max_parts: int = 3) -> SuiteReport:
    """verify_abstract_recursion over every (g, mu), |mu| <= max_size."""
    violations = []
    checked = 0
    for total in range(2, max_size + 1, 2):
        # every composition of total into at most max_parts parts, given by
        # the cut points between its parts, in lexicographic order
        for mu in sorted(tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
                         for k in range(max_parts)
                         for cuts in combinations(range(1, total), k)):
            for g in range(0, max_feasible_genus(mu) + 1):
                checked += 1
                report = verify_abstract_recursion(g, mu)
                if not report.equal:
                    violations.append(report.to_dict())
    _require_checks(checked, "abstract-rec")
    status = "pass" if not violations else "fail"
    return SuiteReport("abstract-rec", {"max_size": max_size,
                                        "max_parts": max_parts,
                                        "checked": checked}, status, violations)


def oracle_suite(max_size: int = 12, max_parts: int = 4,
                 cache: CorrelatorCache | None = None) -> SuiteReport:
    """Production recursion against the brute-force oracle, exact equality."""
    violations = []
    checked = 0
    for total in range(2, max_size + 1, 2):
        for mu in _partitions(total, max_parts):
            by_genus = oracle_correlators_all_genus(mu)
            for g in range(0, max_feasible_genus(mu) + 1):
                checked += 1
                lhs = correlator(g, mu, cache)
                rhs = by_genus.get(g, TPoly.zero())
                if lhs != rhs:
                    violations.append({"g": g, "mu": list(mu),
                                       "recursion": str(lhs), "oracle": str(rhs)})
    _require_checks(checked, "oracle")
    status = "pass" if not violations else "fail"
    return SuiteReport("oracle", {"max_size": max_size, "max_parts": max_parts,
                                  "checked": checked}, status, violations)


def commutator_suite(m_max: int = 4, weight_bound: int = 8,
                     max_subscript: int = 6) -> SuiteReport:
    """Exhaustive [L_m, L_n] = (m-n) L_{m+n} sweep over probe monomials."""
    probes = [CouplingMonomial(())]
    for total in range(1, weight_bound + 1):
        for mu in _partitions(total, weight_bound):
            if max(mu) <= max_subscript:
                probes.append(CouplingMonomial(mu))
    violations = []
    checked = 0
    for m in range(-1, m_max + 1):
        for n in range(-1, m_max + 1):
            if m + n < -1:
                continue
            for probe in probes:
                checked += 1
                if not commutator_check(m, n, probe):
                    violations.append({"m": m, "n": n, "probe": str(probe)})
    _require_checks(checked, "commutators")
    status = "pass" if not violations else "fail"
    return SuiteReport("commutators", {"m_max": m_max,
                                       "weight_bound": weight_bound,
                                       "max_subscript": max_subscript,
                                       "checked": checked}, status, violations)


def heisenberg_suite(index_bound: int = 6, panel_size: int = 12,
                     seed: int = 20240901) -> SuiteReport:
    """[b_m, b_n] = m delta on a reproducible random panel of monomials."""
    rng = random.Random(seed)
    probes = [CouplingMonomial(()), CouplingMonomial((2,)), CouplingMonomial((2, 2))]
    while len(probes) < panel_size:
        n_parts = rng.randint(1, 4)
        parts = tuple(rng.randint(1, 6) for _ in range(n_parts))
        t_power = rng.randint(0, 2)
        probes.append(CouplingMonomial(parts, t_power))
    violations = []
    checked = 0
    for m in range(-index_bound, index_bound + 1):
        for n in range(-index_bound, index_bound + 1):
            if m == 0 or n == 0:
                continue
            for probe in probes:
                checked += 1
                if not heisenberg_check(m, n, probe):
                    violations.append({"m": m, "n": n, "probe": str(probe)})
    _require_checks(checked, "heisenberg")
    status = "pass" if not violations else "fail"
    return SuiteReport("heisenberg", {"index_bound": index_bound,
                                      "panel": len(probes),
                                      "checked": checked}, status, violations)


def cutjoin_suite(max_weight: int = 4,
                  cache: CorrelatorCache | None = None) -> SuiteReport:
    """exp(M)(1) against the recursion-built partition function at gs = 1."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    violations = []
    for d in range(0, max_weight + 1):
        lhs = exp_M_vacuum(d)
        rhs = partition_function(d, cache).set_gs_one()
        if lhs != rhs:
            diff = lhs - rhs
            violations.append({"D": d, "difference": str(diff)})
    status = "pass" if not violations else "fail"
    return SuiteReport("cutjoin", {"max_weight": max_weight}, status, violations)


NPOINT_CELLS = ((0, 2), (0, 3), (1, 1), (1, 2), (2, 1))


def npoint_suite(max_mu_weight: int = 8,
                 cache: CorrelatorCache | None = None) -> SuiteReport:
    """w_recursion == w_from_correlators on the standard cell list."""
    violations = []
    checked = 0
    rec = NPointRecursion(max_mu_weight, cache)
    for (g, n) in NPOINT_CELLS:
        a = rec.cell(g, n)
        b = w_from_correlators(g, n, max_mu_weight, cache)
        checked += bool(a.terms or b.terms)
        if a != b:
            bad = sorted(set(a.terms) | set(b.terms))
            sample = [{"exps": list(e), "recursion": str(a.coeff(e)),
                       "direct": str(b.coeff(e))}
                      for e in bad if a.coeff(e) != b.coeff(e)][:5]
            violations.append({"g": g, "n": n, "mismatches": sample})
    _require_checks(checked, "npoint")
    status = "pass" if not violations else "fail"
    return SuiteReport("npoint", {"K": max_mu_weight, "cells": list(map(list, NPOINT_CELLS))},
                       status, violations)


# name -> runner(cache, params); the CLI offers these names as fatrec.cli.SUITE_NAMES
_RUNNERS = {
    "abstract-rec": lambda cache, p: abstract_recursion_suite(
        p.get("max_weight", 8), p.get("max_parts", 3)),
    "oracle": lambda cache, p: oracle_suite(
        p.get("max_weight", 8), p.get("max_parts", 4), cache),
    "virasoro": lambda cache, p: verify_virasoro(
        p.get("m_max", 4), p.get("max_weight", 6), cache),
    "commutators": lambda cache, p: commutator_suite(
        p.get("m_max", 4), p.get("max_weight", 8), p.get("max_subscript", 6)),
    "heisenberg": lambda cache, p: heisenberg_suite(p.get("m_max", 6)),
    "cutjoin": lambda cache, p: cutjoin_suite(p.get("max_weight", 4), cache),
    "npoint": lambda cache, p: npoint_suite(p.get("max_order", 8), cache),
    "qsc": lambda cache, p: qsc_residual(
        p.get("m_max", 3), p.get("max_order", 8), cache),
    "spectral": lambda cache, p: spectral_curve_check(p.get("max_order", 8), cache),
    "deformation": lambda cache, p: y_squared_negative_part(
        p.get("max_weight", 6), p.get("max_order", 8), cache),
}


def run_suite(name: str, cache: CorrelatorCache | None = None, **params) -> SuiteReport:
    """Dispatch a suite by CLI name."""
    runner = _RUNNERS.get(name)
    if runner is None:
        raise ValueError(f"unknown suite: {name}")
    return runner(cache, params)
