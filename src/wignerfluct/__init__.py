"""Trace fluctuations of polynomials in Wigner and deterministic matrices.

The package computes the limiting covariance of centered traces (the
second-order distribution) combinatorially over annular non-crossing
pairings, samples the matching matrix models, and verifies both against an
exact finite-N partition-sum oracle.
"""

import importlib

# each exported name by the module that defines it; a module is imported on
# the first use of one of its names (PEP 562), so that a command imports only
# the modules it runs
_EXPORTS = {
    "annular": [
        "AnnularPairing", "CyclePermutation", "enumerate_nc2", "filter_by_through", "gamma",
        "is_annular_noncrossing", "is_annular_noncrossing_recursive", "is_non_mixing",
        "kreweras",
    ],
    "covariance": [
        "GOE", "GUE", "RADEMACHER", "WignerParams", "phi2", "phi2_terms", "phi2_two_term",
    ],
    "ensembles": [
        "EntryLaw", "SymmetricDiscreteLaw", "diagonal_moment", "entry_moment", "goe_law",
        "gue_law", "params_of", "rademacher_law", "sample_wigner", "sample_wigners",
        "solve_law", "stream_keys",
    ],
    "graphs": [
        "LabeledGraph", "build_cycle_graph", "classify", "even_partitions", "exact_moment",
        "exact_tau2", "injective_trace", "leaves_count", "omega_X", "quotient",
        "set_partitions",
    ],
    "montecarlo": [
        "TraceSamples", "empirical_cov", "empirical_cumulants", "mixed_third_cumulant",
        "run_traces",
    ],
    "states": ["DetFamily", "FiniteNState", "eval_phi_K", "eval_phi_tilde_K", "family_from_json"],
    "words": [
        "DetLetter", "IDENTITY_LETTER", "Monomial", "canonicalize", "parse_word", "s_transform",
    ],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))


__version__ = "0.1.0"
