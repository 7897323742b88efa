"""Command line entry points: enumeration, theory, Monte Carlo, exact oracle.

Experiments are described by a JSON config:

{
  "ensembles": {"1": {"preset": "gue"},
                "2": {"theta": 0.5, "eta": 1.0, "k4": 1.0}},
  "family":    {"matrices": [{"kind": "identity"}], "norm_bound": 2.0},
  "pairs":     [["x1 a0", "x1 a0"]],
  "N": [400],
  "R": 4000,
  "seed": 7,
  "slack": 8.0
}

The family's dimension is taken from N, so the same config drives
convergence sweeps.  Reports are plain JSON with a schema_version and a
config hash that is invariant under key reordering.

Exit codes: 0 ok, 1 discrepancy (compare and report), 2 config, input or
resource error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .annular import enumerate_nc2, filter_by_through
from .covariance import WignerParams, phi2_terms
from .ensembles import PRESETS, params_of, solve_law
from .graphs import (
    PARTITION_VERTEX_CAP,
    EXACT_N_CAP,
    build_cycle_graph,
    classify,
    exact_tau2,
    weighted_partitions,
)
from .montecarlo import empirical_cov, empirical_cumulants, run_traces
from .states import FiniteNState, MatrixSpecError, family_from_json
from .words import parse_word

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _fail(path, msg):
    raise ConfigError("%s: %s" % (path, msg))


def _require(doc, path, keys, optional=()):
    if not isinstance(doc, dict):
        _fail(path, "expected an object")
    for k in keys:
        if k not in doc:
            _fail(path, "missing required key %r" % k)
    for k in doc:
        if k not in keys and k not in optional:
            _fail("%s/%s" % (path, k), "unknown key")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """A finite number; booleans are JSON's own type, not numbers."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond floats
        return False


def _frac(value, path):
    if isinstance(value, bool):
        _fail(path, "expected a number")
    try:
        if isinstance(value, float):
            return Fraction(str(value))
        return Fraction(value)
    except (TypeError, ValueError):
        _fail(path, "expected a number")


@dataclass
class EnsembleSpec:
    params: WignerParams
    law: object
    raw: dict


@dataclass
class ExperimentConfig:
    ensembles: dict  # id -> EnsembleSpec
    family_spec: dict
    pairs: list  # (Monomial, Monomial)
    n_list: list
    r: int
    seed: int
    slack: float
    raw: dict

    @property
    def params(self):
        return {wid: spec.params for wid, spec in self.ensembles.items()}

    @property
    def laws(self):
        return {wid: spec.law for wid, spec in self.ensembles.items()}

    def family(self, n):
        try:
            return family_from_json(dict(self.family_spec, dim=n))
        except MatrixSpecError as exc:
            _fail("/family/matrices/%d" % exc.index, exc.reason)

    def monomials(self):
        out = []
        for p, q in self.pairs:
            for mono in (p, q):
                if mono not in out:
                    out.append(mono)
        return out


def _resolve_ensemble(wid, doc):
    path = "/ensembles/%s" % wid
    if not isinstance(doc, dict):
        _fail(path, "expected an object")
    if "preset" in doc:
        _require(doc, path, ["preset"])
        name = doc["preset"]
        if name not in PRESETS:
            _fail(path + "/preset", "unknown preset %r" % (name,))
        law = PRESETS[name]()
    else:
        _require(doc, path, ["theta", "eta", "k4"])
        law = solve_law(
            _frac(doc["theta"], path + "/theta"),
            _frac(doc["eta"], path + "/eta"),
            _frac(doc["k4"], path + "/k4"),
        )
    theta, eta, k4 = params_of(law)
    params = WignerParams(float(theta), float(eta), float(k4))
    return EnsembleSpec(params, law, doc)


def _reject_constant(name):
    raise ConfigError("config is not valid JSON: %s is not a finite number" % name)


def parse_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    _require(
        doc,
        "",
        ["ensembles", "family", "pairs", "N", "R", "seed"],
        optional=["slack"],
    )
    if not isinstance(doc["ensembles"], dict) or not doc["ensembles"]:
        _fail("/ensembles", "expected a non-empty object")
    ensembles = {
        wid: _resolve_ensemble(wid, spec) for wid, spec in doc["ensembles"].items()
    }
    _require(doc["family"], "/family", ["matrices"], optional=["norm_bound"])
    if not isinstance(doc["family"]["matrices"], list) or not doc["family"]["matrices"]:
        _fail("/family/matrices", "expected a non-empty list")
    if doc["family"].get("norm_bound") is not None and not _is_number(
        doc["family"]["norm_bound"]
    ):
        _fail("/family/norm_bound", "expected a number")
    if not isinstance(doc["pairs"], list) or not doc["pairs"]:
        _fail("/pairs", "expected a non-empty list")
    n_mats = len(doc["family"]["matrices"])
    pairs = []
    for i, pair in enumerate(doc["pairs"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            _fail("/pairs/%d" % i, "expected a [p, q] word pair")
        try:
            p = parse_word(pair[0])
            q = parse_word(pair[1])
        except ValueError as exc:
            raise ConfigError("/pairs/%d: %s" % (i, exc))
        for mono in (p, q):
            for wid in mono.wigner_labels:
                if wid not in ensembles:
                    _fail("/pairs/%d" % i, "word uses undeclared ensemble %r" % wid)
            for letter in mono.det_letters + (mono.scalar_letter,):
                for j, _, _ in letter.factors:
                    if j >= n_mats:
                        _fail("/pairs/%d" % i, "word uses a%d, but the family "
                              "has no matrix with index %d" % (j, j))
        pairs.append((p, q))
    n_list = doc["N"] if isinstance(doc["N"], list) else [doc["N"]]
    if not n_list:
        _fail("/N", "expected a positive integer or a non-empty list of them")
    for i, n in enumerate(n_list):
        if not _is_int(n) or n < 1:
            _fail("/N/%d" % i, "expected a positive integer")
    if not _is_int(doc["R"]) or doc["R"] < 2:
        _fail("/R", "expected an integer >= 2")
    if not _is_int(doc["seed"]) or doc["seed"] < 0:
        _fail("/seed", "expected an integer >= 0")
    slack = doc.get("slack", 8.0)
    if not _is_number(slack) or slack < 0:
        _fail("/slack", "expected a number >= 0")
    return ExperimentConfig(
        ensembles, doc["family"], pairs, n_list, doc["R"], doc["seed"],
        float(slack), doc,
    )


def config_hash(doc):
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _c2j(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _emit(record, out_path):
    text = json.dumps(record, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _base_record(cfg):
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.raw,
        "config_hash": config_hash(cfg.raw),
    }


def _theory_rows(cfg, family):
    state = FiniteNState(family)
    rows = []
    for p, q in cfg.pairs:
        terms = phi2_terms(p, q, cfg.params, state)
        rows.append(
            {
                "p": str(p),
                "q": str(q),
                "S1": _c2j(terms.s1),
                "S2": _c2j(terms.s2),
                "S3": _c2j(terms.s3),
                "S4": _c2j(terms.s4),
                "total": _c2j(terms.total),
            }
        )
    return rows


def cmd_pairings(args):
    pairings = enumerate_nc2(args.m, args.n)
    if args.through is not None:
        pairings = filter_by_through(pairings, args.through)
    record = {
        "m": args.m,
        "n": args.n,
        "count": len(pairings),
        "pairings": [
            {"pairs": sorted(p.pairs()), "through": p.through_count, "text": str(p)}
            for p in pairings
        ],
    }
    _emit(record, args.out)
    return 0


def cmd_theory(args):
    cfg = parse_config(args.config)
    record = _base_record(cfg)
    record["theory"] = {str(n): _theory_rows(cfg, cfg.family(n)) for n in cfg.n_list}
    _emit(record, args.out)
    return 0


def _mc_block(cfg, family, seed):
    n = family.N
    monos = cfg.monomials()
    samples = run_traces(monos, n, cfg.r, cfg.laws, family, seed)
    pairs_out = []
    for p, q in cfg.pairs:
        est, se = empirical_cov(samples, p, q)
        pairs_out.append(
            {"p": str(p), "q": str(q), "estimate": _c2j(est), "std_error": se}
        )
    cums = {}
    if cfg.r >= 100:
        for mono in monos:
            cums[str(mono)] = [
                {"order": o, "value": v, "std_error": se}
                for o, v, se in empirical_cumulants(samples, mono)
            ]
    return {"N": n, "R": cfg.r, "covariances": pairs_out, "cumulants": cums}


def _seed(args, cfg):
    if args.seed is None:
        return cfg.seed
    if args.seed < 0:
        _fail("/seed", "--seed expects an integer >= 0")
    return args.seed


def cmd_mc(args):
    cfg = parse_config(args.config)
    seed = _seed(args, cfg)
    record = _base_record(cfg)
    record["mc"] = [_mc_block(cfg, cfg.family(n), seed) for n in cfg.n_list]
    _emit(record, args.out)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["N", "p", "q", "estimate_re", "estimate_im", "std_error"])
            for block in record["mc"]:
                for row in block["covariances"]:
                    w.writerow(
                        [
                            block["N"],
                            row["p"],
                            row["q"],
                            row["estimate"]["re"],
                            row["estimate"]["im"],
                            row["std_error"],
                        ]
                    )
    return 0


def _oracle_value(cfg, family, p, q):
    """The exact covariance where the oracle's caps allow it, else None."""
    if 2 * (p.degree + q.degree) > PARTITION_VERTEX_CAP or family.N > EXACT_N_CAP:
        return None
    return exact_tau2(p, q, family, cfg.laws)


def _oracle_rows(cfg, n, dump_path):
    family = cfg.family(n)
    rows = []
    dump_rows = []
    for p, q in cfg.pairs:
        value = _oracle_value(cfg, family, p, q)
        if value is None:
            rows.append({"p": str(p), "q": str(q), "skipped": "caps exceeded"})
            continue
        rows.append({"p": str(p), "q": str(q), "value": _c2j(value)})
        if dump_path and p.degree and q.degree:
            # the dump rows are the terms of exact_tau2's walk
            joint = build_cycle_graph([p, q])
            for pid, g, w2 in weighted_partitions(joint, cfg.laws, 2):
                rep = classify(g)
                dump_rows.append(
                    [
                        str(p), str(q), pid,
                        float(sum(c.q1 for c in rep.components)),
                        sum(c.q2 for c in rep.components),
                        float(sum(c.q2p for c in rep.components)),
                        ";".join(c.kind for c in rep.components),
                        float(w2),
                    ]
                )
    if dump_path:
        with open(dump_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p", "q", "partition", "q1", "q2", "q2p", "kinds", "omega_x2"])
            w.writerows(dump_rows)
    return rows


def cmd_oracle(args):
    cfg = parse_config(args.config)
    record = _base_record(cfg)
    record["oracle"] = {
        str(n): _oracle_rows(cfg, n, args.dump_partitions) for n in cfg.n_list
    }
    _emit(record, args.out)
    return 0


def cmd_compare(args, with_cumulants=False):
    """compare (and, with cumulants, report): theory against MC and the oracle."""
    cfg = parse_config(args.config)
    seed = _seed(args, cfg)
    started = time.time()
    record = _base_record(cfg)
    runs = []
    any_flag = False
    for n in cfg.n_list:
        family = cfg.family(n)
        theory = _theory_rows(cfg, family)
        mc = _mc_block(cfg, family, seed)
        rows = []
        for t_row, m_row, (p, q) in zip(theory, mc["covariances"], cfg.pairs):
            theory_val = complex(t_row["total"]["re"], t_row["total"]["im"])
            est = complex(m_row["estimate"]["re"], m_row["estimate"]["im"])
            se = m_row["std_error"]
            tol = 4.0 * se + cfg.slack / n
            flag = abs(est - theory_val) > tol
            any_flag = any_flag or flag
            row = {
                "p": t_row["p"],
                "q": t_row["q"],
                "theory": t_row,
                "mc_estimate": m_row["estimate"],
                "mc_std_error": se,
                "tolerance": tol,
                "discrepancy": flag,
            }
            oracle = _oracle_value(cfg, family, p, q)
            if oracle is not None:
                row["oracle"] = _c2j(oracle)
            rows.append(row)
        block = {"N": n, "R": cfg.r, "pairs": rows}
        if with_cumulants:
            block["cumulants"] = mc["cumulants"]
        runs.append(block)
    record["runs"] = runs
    record["discrepancy"] = any_flag
    record["timing"] = {"seconds": time.time() - started}
    _emit(record, args.out)
    return 1 if any_flag else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wignerfluct",
        description="Trace fluctuation covariance for Wigner plus deterministic matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairings", help="enumerate annular non-crossing pairings")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--through", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pairings)

    for name, fn, extra in [
        ("theory", cmd_theory, []),
        ("mc", cmd_mc, ["seed", "csv"]),
        ("oracle", cmd_oracle, ["dump"]),
        ("compare", cmd_compare, ["seed"]),
        ("report", functools.partial(cmd_compare, with_cumulants=True), ["seed"]),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if "seed" in extra:
            p.add_argument("--seed", type=int, default=None)
        if "csv" in extra:
            p.add_argument("--csv", default=None)
        if "dump" in extra:
            p.add_argument("--dump-partitions", dest="dump_partitions", default=None)
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (KeyError, ValueError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
