"""Spans and counters around the public functions of each wignerfluct module.

The wrappers live in the benchmark, not in the package: ``Tracer.install``
replaces each traced function wherever a wignerfluct module binds it (its
own module, ``from .x import f`` copies and the package namespace), and
``Tracer.uninstall`` puts the originals back.  A span is (name, start, end,
parent id), kept in memory and written once at exit.  ``layer_metrics``
turns the spans and counters of one command into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MODULES = (
    "wignerfluct",
    "wignerfluct.annular",
    "wignerfluct.cli",
    "wignerfluct.covariance",
    "wignerfluct.ensembles",
    "wignerfluct.graphs",
    "wignerfluct.montecarlo",
    "wignerfluct.states",
    "wignerfluct.words",
)


def _double_factorial(k):
    out = 1
    for j in range(k, 0, -2):
        out *= j
    return out


def _cyclic_min(key):
    return min((key[i:] + key[:i] for i in range(len(key))), default=key)


def _after_enumerate(tracer, result, m, n, *_a, **_k):
    tracer.count("annular.pairings_kept", len(result))
    tracer.count("annular.involutions_computed", _double_factorial(m + n - 1))


def _after_phi(tracer, result, state, letters):
    tracer.words.add(_cyclic_min(tuple(f for letter in letters for f in letter.factors)))


def _after_word_matrix(tracer, result, family, letters):
    tracer.count("states.matmuls_computed", len(letters))


def _after_sample(tracer, result, n, law, seed_key):
    from wignerfluct.ensembles import is_real_law

    tracer.count("ensembles.sample_bytes_computed", n * n * (8 if is_real_law(law) else 16))


def _after_run_traces(tracer, result, monomials, n, r, *_a, **_k):
    tracer.count("montecarlo.replicates", r)


# (module, attribute or Class.method, span name, hook run after each call)
TARGETS = (
    ("wignerfluct.cli", "main", "cli.main", None),
    ("wignerfluct.cli", "parse_config", "cli.parse_config", None),
    ("wignerfluct.annular", "enumerate_nc2", "annular.enumerate", _after_enumerate),
    ("wignerfluct.annular", "kreweras", "annular.kreweras", None),
    ("wignerfluct.covariance", "phi2_terms", "covariance.phi2_terms", None),
    ("wignerfluct.states", "family_from_json", "states.family_build", None),
    ("wignerfluct.states", "FiniteNState.phi", "states.phi", _after_phi),
    ("wignerfluct.states", "FiniteNState.phi_hadamard", "states.hadamard", None),
    ("wignerfluct.states", "DetFamily.word_matrix", "states.word_matrix", _after_word_matrix),
    ("wignerfluct.ensembles", "sample_wigner", "ensembles.sample", _after_sample),
    ("wignerfluct.montecarlo", "run_traces", "montecarlo.run_traces", _after_run_traces),
    ("wignerfluct.montecarlo", "empirical_cov", "montecarlo.estimator", None),
    ("wignerfluct.montecarlo", "empirical_cumulants", "montecarlo.estimator", None),
    ("wignerfluct.graphs", "exact_tau2", "graphs.exact_tau2", None),
    ("wignerfluct.graphs", "quotient", "graphs.quotient", None),
    ("wignerfluct.graphs", "injective_trace", "graphs.injective_trace", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent id); id = list index
        self.counters = {}
        self.words = set()
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original)

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, attr, name, after in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self.wrap(name, original, after))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
            "counters": self.counters,
            "distinct_words": len(self.words),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def span_totals(doc):
    """Per span name: (calls, total seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    names = doc["names"]
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for sid, (ni, start, end, _) in enumerate(spans):
        calls, total, own = out.get(names[ni], (0, 0.0, 0.0))
        out[names[ni]] = (calls + 1, total + end - start, own + end - start - child[sid])
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(doc):
    """Per-layer metrics of one traced command, as {name: (value, unit)}."""
    totals = span_totals(doc)
    counters = doc["counters"]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    kept = counters.get("annular.pairings_kept", 0)
    invol = counters.get("annular.involutions_computed", 0)
    reps = counters.get("montecarlo.replicates", 0)
    words = doc["distinct_words"]
    c, s, r = "count", "s", "ratio"
    return {
        "cli.parse_config_s": (total("cli.parse_config"), s),
        "cli.self_s": (own("cli.main"), s),
        "annular.enumerate_calls": (calls("annular.enumerate"), c),
        "annular.enumerate_s": (total("annular.enumerate"), s),
        "annular.pairings_kept": (kept, c),
        "annular.involutions_computed": (invol, c),
        "annular.kept_ratio": (_ratio(kept, invol), r),
        "annular.kreweras_calls": (calls("annular.kreweras"), c),
        "annular.kreweras_s": (total("annular.kreweras"), s),
        "covariance.phi2_terms_calls": (calls("covariance.phi2_terms"), c),
        "covariance.phi2_terms_self_s": (own("covariance.phi2_terms"), s),
        "states.family_builds": (calls("states.family_build"), c),
        "states.family_build_s": (total("states.family_build"), s),
        "states.phi_calls": (calls("states.phi"), c),
        "states.phi_s": (total("states.phi"), s),
        "states.hadamard_calls": (calls("states.hadamard"), c),
        "states.hadamard_s": (total("states.hadamard"), s),
        "states.word_matrix_calls": (calls("states.word_matrix"), c),
        "states.word_matrix_s": (total("states.word_matrix"), s),
        "states.matmuls_computed": (counters.get("states.matmuls_computed", 0), c),
        "states.distinct_words": (words, c),
        "states.distinct_ratio": (_ratio(words, calls("states.phi")), r),
        "ensembles.sample_calls": (calls("ensembles.sample"), c),
        "ensembles.sample_s": (total("ensembles.sample"), s),
        "ensembles.sample_bytes_computed": (
            counters.get("ensembles.sample_bytes_computed", 0), "B"),
        "montecarlo.replicates": (reps, c),
        "montecarlo.run_traces_s": (total("montecarlo.run_traces"), s),
        "montecarlo.trace_self_s": (own("montecarlo.run_traces"), s),
        "montecarlo.reps_per_s": (_ratio(reps, total("montecarlo.run_traces")), "1/s"),
        "montecarlo.estimator_s": (total("montecarlo.estimator"), s),
        "graphs.exact_tau2_s": (total("graphs.exact_tau2"), s),
        "graphs.exact_tau2_self_s": (own("graphs.exact_tau2"), s),
        "graphs.partitions_visited": (calls("graphs.quotient"), c),
        "graphs.quotient_s": (total("graphs.quotient"), s),
        "graphs.injective_trace_calls": (calls("graphs.injective_trace"), c),
        "graphs.injective_trace_s": (total("graphs.injective_trace"), s),
        "graphs.nonzero_ratio": (
            _ratio(calls("graphs.injective_trace"), calls("graphs.quotient")), r),
    }
