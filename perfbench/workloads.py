"""The benchmark's workloads: CLI configs built from a workload seed.

Each workload is one CLI subcommand run on one config.  The seed only
reorders the pairs, swaps p and q inside a pair (phi2 is symmetric) and
rotates the words of theory pairs (traces are cyclic), so every seed asks
for the same amount of work and every checked value keeps its committed
reference.  The Monte Carlo seed is fixed per workload (those of acceptance
criteria 7 and 8): MC streams are keyed by (seed, ensemble, replicate), so
reordering or swapping pairs leaves every estimate bit-identical and
compare's verdict does not depend on the workload seed.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

# Relative and absolute tolerance on committed reference values: wide enough
# for reassociated float sums, far below any real change in a value.
REF_RTOL = 1e-7
REF_ATOL = 1e-9

SHIFT = {"kind": "circulant", "first_row": [0, 1]}
# The theory workload uses a banded circulant: with the pure shift its
# theory total is exactly zero, and a zero reference checks nothing.  The
# evaluation cost is the same for any circulant.
BAND = {"kind": "circulant", "first_row": [0.5, 0.5]}


def _diag(values):
    return {"kind": "diagonal_pattern", "values": values}


WORKLOADS = {
    "mc_n400": {
        "command": "compare",
        "why": "criterion-7/11 MC shapes at N=400, R=30: sampling and dense "
        "products take about half, N x N theory products a third; no oracle",
        "ensembles": {
            "1": {"theta": 0.5, "eta": 1, "k4": 1},
            "2": {"preset": "gue"},
            "3": {"preset": "rademacher"},
        },
        "family": {"matrices": [_diag([1, -1]), SHIFT], "norm_bound": 2},
        "pairs": [
            ["x1 a0", "x1 a0"],
            ["x1 a1 x1 a1", "x1 a1 x1 a1"],
            ["x1 a0", "x2 a0"],
            ["x2 x2", "x2 x2 x2 x2"],
            ["x3 a1 x3 a1", "x3 a1 x3 a1"],
            ["x3 a0", "x3 a0"],
        ],
        "N": 400,
        "R": 30,
        "mc_seed": 1234,
        "rotate": False,
    },
    "theory_deg7_n8": {
        "command": "theory",
        "why": "one 7+7 pair at N=8: enumeration walks 135135 involutions to "
        "keep 2800 pairings and each phi call is Python overhead, not BLAS",
        "ensembles": {"1": {"theta": 0.5, "eta": 2, "k4": 1}},
        "family": {"matrices": [_diag([1, -1, 0.5]), BAND]},
        "pairs": [
            [
                "x1 a0 x1 a1 x1 a0 x1 a1 x1 a0 x1 a1 x1 a0",
                "x1 a1 x1 a0 x1 a1 x1 a1 x1 a0 x1 a1 x1 a1",
            ],
        ],
        "N": 8,
        "R": 2,
        "mc_seed": 1,
        "rotate": True,
    },
    "oracle_n8": {
        "command": "compare",
        "why": "criterion 8 plus a 3+2 pair at the partition cap: exact_tau2 "
        "walks Bell(10) partitions and MC at N=8 is per-replicate overhead",
        "ensembles": {"1": {"preset": "goe"}},
        "family": {"matrices": [_diag([1, -1]), SHIFT]},
        "pairs": [
            ["x1 a0", "x1 a1"],
            ["x1 a0 x1 a1", "x1 a0 x1 a1"],
            ["x1 a0 x1 a1 x1 a0", "x1 a1 x1 a0"],
        ],
        "N": 8,
        "R": 4000,
        "mc_seed": 99,
        "rotate": False,
    },
}


def _rotate(word, k):
    """Rotate a word by k whole (x, a) segments; its trace is unchanged."""
    segments = []
    for tok in word.split():
        if tok.startswith("x"):
            segments.append([tok])
        else:
            segments[-1].append(tok)
    k %= len(segments)
    return " ".join(t for seg in segments[k:] + segments[:k] for t in seg)


def make_config(name, seed, vary=True):
    """The config document for one workload and the reference id of each pair.

    With ``vary=False`` the pairs are kept as written, which is how the
    committed references were taken.
    """
    spec = WORKLOADS[name]
    rng = random.Random("%s/%d" % (name, seed))
    order = list(range(len(spec["pairs"])))
    pairs = [list(p) for p in spec["pairs"]]
    if vary:
        rng.shuffle(order)
        pairs = [pairs[i] for i in order]
        for pair in pairs:
            if rng.random() < 0.5:
                pair.reverse()
            if spec["rotate"]:
                pair[:] = [_rotate(w, rng.randrange(len(w.split()))) for w in pair]
    doc = {
        "ensembles": spec["ensembles"],
        "family": spec["family"],
        "pairs": pairs,
        "N": [spec["N"]],
        "R": spec["R"],
        "seed": spec["mc_seed"],
    }
    return doc, order


def load_references():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def _close(got, ref):
    diff = abs(complex(got["re"], got["im"]) - complex(*ref))
    return diff <= REF_ATOL + REF_RTOL * abs(complex(*ref))


def expected_outputs(name):
    """Number of checked outputs per command: exit code plus each value."""
    spec = WORKLOADS[name]
    refs = load_references()[name]
    per_pair = sum(len(r) for r in refs)
    if spec["command"] == "compare":
        per_pair += len(spec["pairs"])  # one MC verdict per pair
    return 1 + per_pair


def check_output(name, order, returncode, stdout, refs):
    """Count (checked, wrong) outputs of one command against the references.

    ``refs[i]`` holds the reference values of pair i as written in
    WORKLOADS; ``order[j]`` is the pair at position j of the config.
    A command that exits with a code other than 0, or prints no record,
    gets every one of its outputs counted wrong.
    """
    total = expected_outputs(name)
    if returncode != 0:
        return total, total
    try:
        record = json.loads(stdout)
        n = str(WORKLOADS[name]["N"])
        if WORKLOADS[name]["command"] == "theory":
            rows = [{"theory": row} for row in record["theory"][n]]
        else:
            rows = record["runs"][0]["pairs"]
        wrong = 0
        checked = 1
        for row, i in zip(rows, order):
            ref = refs[i]
            checked += len(ref)
            if not _close(row["theory"]["total"], ref["theory"]):
                wrong += 1
            if "oracle" in ref and not _close(row["oracle"], ref["oracle"]):
                wrong += 1
            if WORKLOADS[name]["command"] == "compare":
                checked += 1
                wrong += row["discrepancy"] is not False
    except (ValueError, KeyError, IndexError, TypeError):
        return total, total
    # a record with missing rows leaves outputs unchecked: count them wrong
    return total, wrong + (total - checked)
