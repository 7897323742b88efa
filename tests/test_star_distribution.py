"""The limiting covariance needs more than the *-distribution of the matrices.

A = diagonal_pattern(N, pattern) and B = F A F*, with F the unitary DFT, are
unitarily conjugate, so they have the same *-distribution.  Under GUE, the
second-order free case, phi2 is the same for both.  A law with theta != 0,
eta != 1 + theta or k4 != 0 weights the transpose (S2), Hadamard (S4) or k4
(S3) channel, and there phi2 tells A from B while the other channels agree.
The exact oracle and Monte Carlo see the same gap at finite N.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from wignerfluct.cli import main
from wignerfluct.covariance import WignerParams, phi2_terms
from wignerfluct.ensembles import goe_law, gue_law, params_of, solve_law
from wignerfluct.graphs import exact_tau2
from wignerfluct.states import DetFamily, FiniteNState, circulant, diagonal_pattern
from wignerfluct.words import parse_word

DESIGNED = solve_law(Fraction(1, 2), Fraction(1), Fraction(1))

# channel, pattern, word on a0, law, phi2 on A and B under it, phi2 under GUE
CASES = [
    ("s4", [1, -1], "x1 a0", DESIGNED, (1, 1.5), 1),
    ("s3", [1, -1], "x1 a0 x1 a0", DESIGNED, (4.5, 2.5), 2),
    ("s2", [1, 2, 3], "x1 a0", goe_law(), (28 / 3, 9), 14 / 3),
]


def conjugate_family(n, pattern):
    """DetFamily([A, F A F*]): the word on a0 sees A, the same word on a1 sees B."""
    a = diagonal_pattern(n, pattern)
    j = np.arange(n)
    f = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    return DetFamily([a, f @ a @ f.conj().T])


def words(word):
    return parse_word(word), parse_word(word.replace("a0", "a1"))


def channels(word, law, state):
    terms = phi2_terms(word, word, {"1": WignerParams(*map(float, params_of(law)))}, state)
    return {"s1": terms.s1, "s2": terms.s2, "s3": terms.s3, "s4": terms.s4,
            "total": terms.total}


def test_b_is_the_shift_by_half_n():
    for n in (8, 12, 48):
        fam = conjugate_family(n, [1, -1])
        np.testing.assert_allclose(
            fam.matrices[1], circulant(n, [0] * (n // 2) + [1]), atol=1e-12
        )


@pytest.mark.parametrize("channel, pattern, word, law, totals, gue_total", CASES,
                         ids=[c[0] for c in CASES])
def test_theory_tells_a_from_b_only_off_gue(channel, pattern, word, law, totals, gue_total):
    state = FiniteNState(conjugate_family(48, pattern))
    on_a, on_b = words(word)
    for w in (on_a, on_b):
        assert channels(w, gue_law(), state)["total"] == pytest.approx(gue_total, abs=1e-9)
    got_a = channels(on_a, law, state)
    got_b = channels(on_b, law, state)
    assert [got_a["total"], got_b["total"]] == pytest.approx(list(totals), abs=1e-9)
    for name in ("s1", "s2", "s3", "s4"):
        if name != channel:
            assert got_a[name] == pytest.approx(got_b[name], abs=1e-9), name


@pytest.mark.parametrize("channel, pattern, word, law, totals, gue_total", CASES,
                         ids=[c[0] for c in CASES])
def test_oracle_tells_a_from_b_only_off_gue(channel, pattern, word, law, totals, gue_total):
    sizes = (6, 12) if len(pattern) == 3 else (8, 12)
    gaps = []  # (oracle - limit) * N on A and on B, per N
    for n in sizes:
        fam = conjugate_family(n, pattern)
        on_a, on_b = words(word)
        for w in (on_a, on_b):
            assert exact_tau2(w, w, fam, {"1": gue_law()}) == pytest.approx(gue_total, abs=1e-9)
        got = [exact_tau2(w, w, fam, {"1": law}) for w in (on_a, on_b)]
        assert abs(got[1] - got[0]) > 0.25
        gaps.append([(g - t) * n for g, t in zip(got, totals)])
    # exact at every N for degree 1, a C / N approach to the limit at degree 2
    if channel == "s3":
        assert gaps[1] == pytest.approx(gaps[0], abs=1e-9)
    else:
        assert gaps[0] + gaps[1] == pytest.approx([0] * 4, abs=1e-9)


def test_compare_separates_a_from_its_circulant_conjugate(tmp_path):
    n = 8
    doc = {
        "ensembles": {"1": {"theta": 0.5, "eta": 1, "k4": 1}},
        "family": {"matrices": [{"kind": "diagonal_pattern", "values": [1, -1]},
                                {"kind": "circulant", "first_row": [0] * (n // 2) + [1]}],
                   "norm_bound": 1},
        "pairs": [["x1 a0", "x1 a0"], ["x1 a1", "x1 a1"]],
        "N": n,
        "R": 4000,
        "seed": 11,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "compare.json"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    on_a, on_b = json.loads(out.read_text())["runs"][0]["pairs"]
    for row, want in ((on_a, 1.0), (on_b, 1.5)):
        assert row["theory"]["total"]["re"] == pytest.approx(want, abs=1e-12)
        assert row["oracle"]["re"] == pytest.approx(want, abs=1e-12)
        assert not row["discrepancy"]
    gap = on_b["mc_estimate"]["re"] - on_a["mc_estimate"]["re"]
    assert gap > 8 * np.hypot(on_a["mc_std_error"], on_b["mc_std_error"])
