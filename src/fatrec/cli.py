"""Command-line surface: correlators, enumeration, series, suites, cache.

Output is deterministic for fixed flags; ``--format json`` switches every
subcommand to machine-readable output.  Exit codes: 0 success or pass,
1 verification failure or cache error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .correlators import (CacheConflict, CacheError, CorrelatorCache,
                          correlator, free_energy, max_feasible_genus,
                          partition_function)
from .exact import rat_str

# the names suites.run_suite accepts; each handler imports the modules it needs
SUITE_NAMES = ("abstract-rec", "oracle", "virasoro", "commutators",
               "heisenberg", "cutjoin", "npoint", "qsc", "spectral",
               "deformation")


def _parse_mu(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad valence vector: {text!r}")


def _parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational: {text!r}")


def _global_flags(parser, suppress: bool) -> None:
    # The same flags are accepted before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber earlier values.
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", choices=("text", "json"), default=dflt("text"))
    parser.add_argument("--no-cache", action="store_true", default=dflt(False),
                        help="do not read or write the persistent cache")
    parser.add_argument("--paranoid", action="store_true", default=dflt(False),
                        help="re-derive each hit from its cached children and compare")
    parser.add_argument("--cache-path", default=dflt(None),
                        help="cache file (default ./fatrec-cache.json or $FATREC_CACHE)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatrec",
        description="Exact fat-graph calculus: correlators, recursions, checks.")
    _global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlator", parents=[common],
                       help="F_g^mu(t) by the quadratic recursion")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mu", type=_parse_mu, required=True)
    p.add_argument("--t", type=_parse_rat, default=None,
                   help="evaluate at a rational t instead of printing the monomial")

    p = sub.add_parser("enumerate", parents=[common], help="list fat-graph classes of a given type")
    p.add_argument("--mu", type=_parse_mu, required=True)
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--details", action="store_true")

    p = sub.add_parser("free-energy", parents=[common], help="genus-g free energy series")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-weight", type=int, default=6)

    p = sub.add_parser("partition", parents=[common], help="partition function series")
    p.add_argument("--max-weight", type=int, default=6)

    p = sub.add_parser("npoint", parents=[common], help="n-point function W_{g,n}")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-weight", type=int, default=8)
    p.add_argument("--route", choices=("correlators", "recursion"),
                   default="correlators")

    p = sub.add_parser("qsc", parents=[common], help="quantum-spectral-curve residual check")
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--max-weight", type=int, default=8)

    p = sub.add_parser("verify", parents=[common], help="run a named verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--max-parts", type=int, default=None)
    p.add_argument("--max-subscript", type=int, default=None)

    p = sub.add_parser("cache", parents=[common], help="round-trip check of the persistent cache")

    return parser


def _open_cache(args) -> CorrelatorCache:
    if args.no_cache:
        return CorrelatorCache(None, paranoid=args.paranoid)
    path = CorrelatorCache.resolve_path(args.cache_path)
    cache = CorrelatorCache(path, paranoid=args.paranoid)
    cache.load()
    return cache


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_correlator(args, cache) -> int:
    value = correlator(args.g, args.mu, cache)
    if args.t is not None:
        num = value.eval_at(args.t)
        _emit(args, [rat_str(num)],
              {"g": args.g, "mu": list(args.mu), "t": rat_str(args.t),
               "value": rat_str(num)})
    else:
        single = value.single_term()
        payload = {"g": args.g, "mu": list(args.mu)}
        if value.is_zero():
            payload.update({"coeff": "0", "t_power": 0})
        else:
            payload.update({"coeff": rat_str(single[1]), "t_power": single[0]})
        _emit(args, [str(value)], payload)
    return 0


def _cmd_enumerate(args, cache) -> int:
    from .graphsum import enumerate_graphs
    genera = [args.genus] if args.genus is not None else None
    if genera is None:
        genera = list(range(0, max_feasible_genus(args.mu) + 1))
    lines = []
    payload = {"mu": list(args.mu), "classes": []}
    for g in genera:
        s = enumerate_graphs(g, args.mu)
        for gr, coeff in s.sorted_terms():
            entry = {"coeff": rat_str(coeff), "faces": gr.face_count(),
                     "genus": g, "alpha": gr.alpha_cycles_str() or "()"}
            payload["classes"].append(entry)
            if args.details:
                lines.append(f"coeff={entry['coeff']} faces={entry['faces']} "
                             f"genus={g} alpha={entry['alpha']}")
        if not args.details:
            lines.append(f"genus={g} classes={len(s.terms)} "
                         f"weighted={str(s.weighted_t_total())}")
    _emit(args, lines, payload)
    return 0


def _emit_series(args, series, params: dict) -> None:
    terms = [{"monomial": str(m), "coeff": rat_str(c)} for m, c in series.sorted_terms()]
    _emit(args, [str(series)], {**params, "terms": terms})


def _cmd_free_energy(args, cache) -> int:
    _emit_series(args, free_energy(args.genus, args.max_weight, cache),
                 {"genus": args.genus, "max_weight": args.max_weight})
    return 0


def _cmd_partition(args, cache) -> int:
    _emit_series(args, partition_function(args.max_weight, cache),
                 {"max_weight": args.max_weight})
    return 0


def _cmd_npoint(args, cache) -> int:
    from .npoint import NPointRecursion, w_from_correlators, xseries_to_json_terms
    if args.route == "recursion" and (args.g, args.n) != (0, 1):
        series = NPointRecursion(args.max_weight, cache).cell(args.g, args.n)
    else:
        series = w_from_correlators(args.g, args.n, args.max_weight, cache)
    terms = xseries_to_json_terms(series)
    lines = [f"x^{list(t['exps'])} coeff={t['coeff']} t_power={t['t_power']}"
             for t in terms]
    _emit(args, lines, {"g": args.g, "n": args.n, "K": args.max_weight,
                        "terms": terms})
    return 0


def _cmd_qsc(args, cache) -> int:
    from .npoint import qsc_residual
    report = qsc_residual(args.m_max, args.max_weight, cache)
    _emit(args, [f"suite=qsc m_max={args.m_max} K={args.max_weight} "
                 f"status={report.status}"]
          + [f"  violation: {v}" for v in report.violations]
          + [f"  note: {n}" for n in report.notes],
          report.to_dict())
    return 0 if report.passed else 1


def _cmd_verify(args, cache) -> int:
    from .suites import run_suite
    params = {}
    for key in ("m_max", "max_weight", "max_order", "max_parts", "max_subscript"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    report = run_suite(args.suite, cache, **params)
    lines = [f"suite={report.suite} "
             + " ".join(f"{k}={v}" for k, v in report.params.items())
             + f" status={report.status}"]
    lines += [f"  violation: {v}" for v in report.violations]
    lines += [f"  note: {n}" for n in report.notes]
    _emit(args, lines, report.to_dict())
    return 0 if report.passed else 1


def _cmd_cache(args, cache) -> int:
    import os
    if cache.path is None:  # --no-cache read nothing; check the file all the same
        cache = CorrelatorCache(CorrelatorCache.resolve_path(args.cache_path))
        cache.load()
    path = cache.path
    first = cache.serialize()
    if not os.path.exists(path):
        cache.save()
    reloaded = CorrelatorCache(path)
    reloaded.load()
    second = reloaded.serialize()
    ok = (first == second) and reloaded.table == cache.table
    payload = {"suite": "cache", "path": path, "entries": len(cache.table),
               "status": "pass" if ok else "fail"}
    _emit(args, [f"cache path={path} entries={len(cache.table)} "
                 f"status={payload['status']}"], payload)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cache = _open_cache(args)
    except CacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    handlers = {
        "correlator": _cmd_correlator,
        "enumerate": _cmd_enumerate,
        "free-energy": _cmd_free_energy,
        "partition": _cmd_partition,
        "npoint": _cmd_npoint,
        "qsc": _cmd_qsc,
        "verify": _cmd_verify,
        "cache": _cmd_cache,
    }
    try:
        code = handlers[args.command](args, cache)
    except CacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # save only when the run added a cell to what the file holds
    if (not args.no_cache and cache.path and args.command != "cache"
            and cache.stored != len(cache.table)):
        try:
            cache.save()
        except CacheConflict as exc:  # two answers for one cell
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except CacheError as exc:
            print(f"warning: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
