"""Exact-arithmetic calculus of fat graphs (ribbon graphs).

Enumeration of labelled fat graphs by genus and valence profile, the
edge-contraction recursion checked at the graph-sum level, Hermitian
one-matrix-model correlators via the quadratic recursion with a brute-force
oracle, fat Virasoro constraints, the cut-and-join representation of the
partition function, n-point functions with their own quadratic recursion,
and the quantum-spectral-curve identities -- all over exact rationals.

The names below are imported from their submodule on first use (PEP 562), so
``import fatrec`` and ``import fatrec.cli`` load no module they do not need.
"""

from importlib import import_module

_EXPORTS = {
    "exact": "CouplingMonomial CouplingSeries Rat TPoly rat rat_str series_exp series_log",
    "ribbon": "FaceSet FatGraph dot_graph involutions loop_graph theta_graph",
    "graphsum": "GraphSum contract_K1 enumerate_graphs oracle_correlator "
                "oracle_correlators_all_genus relabel verify_abstract_recursion",
    "correlators": "CorrelatorCache CacheError connected_correlator correlator "
                   "free_energy full_free_energy partition_function",
    "virasoro": "LinearOp apply_L commutator_check heisenberg_check "
                "spectral_curve_check verify_virasoro y_squared_negative_part",
    "cutjoin": "apply_M exp_M_vacuum",
    "npoint": "op_D qsc_residual s_function w_from_correlators w_recursion",
    "xseries": "XSeries xseries_diag xseries_invert",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
