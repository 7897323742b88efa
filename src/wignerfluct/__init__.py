"""Trace fluctuations of polynomials in Wigner and deterministic matrices.

The package computes the limiting covariance of centered traces (the
second-order distribution) combinatorially over annular non-crossing
pairings, samples the matching matrix models, and verifies both against an
exact finite-N partition-sum oracle.
"""

from .annular import (
    AnnularPairing,
    CyclePermutation,
    enumerate_nc2,
    filter_by_through,
    gamma,
    is_annular_noncrossing,
    is_annular_noncrossing_recursive,
    is_non_mixing,
    kreweras,
)
from .covariance import (
    GOE,
    GUE,
    RADEMACHER,
    WignerParams,
    phi2,
    phi2_terms,
    phi2_two_term,
)
from .ensembles import (
    EntryLaw,
    SymmetricDiscreteLaw,
    diagonal_moment,
    entry_moment,
    goe_law,
    gue_law,
    params_of,
    rademacher_law,
    sample_wigner,
    sample_wigners,
    solve_law,
    stream_keys,
)
from .graphs import (
    LabeledGraph,
    build_cycle_graph,
    classify,
    even_partitions,
    exact_moment,
    exact_tau2,
    injective_trace,
    leaves_count,
    omega_X,
    quotient,
    set_partitions,
)
from .montecarlo import (
    TraceSamples,
    empirical_cov,
    empirical_cumulants,
    mixed_third_cumulant,
    run_traces,
)
from .states import (
    DetFamily,
    FiniteNState,
    eval_phi_K,
    eval_phi_tilde_K,
    family_from_json,
)
from .words import (
    DetLetter,
    IDENTITY_LETTER,
    Monomial,
    canonicalize,
    parse_word,
    s_transform,
)

__version__ = "0.1.0"
