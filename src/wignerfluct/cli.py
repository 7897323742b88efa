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
convergence sweeps; a size may appear once.  Reports are plain JSON with a
schema_version and a config hash that is invariant under key reordering.
Monte Carlo samples with the config's seed, so the record and its hash
name every input of a run.

``mc`` prints each pair's covariance estimate with its batch-means standard
error and, when R >= 100, the order 2-4 cumulants of each word's trace with
their standard errors, and no verdict on them.
``compare`` sets each pair's theory value against the Monte Carlo estimate
and the exact oracle and prints no cumulants; ``report`` is ``compare``
plus the cumulants of ``mc`` (an empty object when R < 100).  These three
need R >= 3: the batch-means standard error of two replicates is 0.
``oracle --dump-partitions`` names each partition of the walk by its
restricted growth string, such as ``0.1.1.0``.

Exit codes: 0 ok, 1 discrepancy (compare and report), 2 config, input,
output or resource error, one line on stderr; numpy's floating point
warnings are not printed.
"""

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

try:  # the interpreter's own SHA-256: hashlib maps OpenSSL's libcrypto, +3.6 MB resident
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .annular import enumerate_nc2, filter_by_through
from .covariance import WignerParams, phi2_terms
from .ensembles import PRESETS, params_of, solve_law
from .states import FiniteNState, MatrixSpecError, family_from_json
from .words import EXACT_N_CAP, PARTITION_VERTEX_CAP, parse_word

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
class ExperimentConfig:
    params: dict  # Wigner id -> WignerParams
    laws: dict  # Wigner id -> entry law
    family_spec: dict
    pairs: list  # (Monomial, Monomial)
    n_list: list
    r: int
    seed: int
    slack: float
    raw: dict

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
        values = [_frac(doc[k], "%s/%s" % (path, k)) for k in ("theta", "eta", "k4")]
        try:
            law = solve_law(*values)
        except ValueError as exc:  # a law outside its domain
            _fail(path, str(exc))
    theta, eta, k4 = params_of(law)
    return WignerParams(float(theta), float(eta), float(k4)), law


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
    params = {}
    laws = {}
    for wid, spec in doc["ensembles"].items():
        params[wid], laws[wid] = _resolve_ensemble(wid, spec)
    _require(doc["family"], "/family", ["matrices"], optional=["norm_bound"])
    if not isinstance(doc["family"]["matrices"], list) or not doc["family"]["matrices"]:
        _fail("/family/matrices", "expected a non-empty list")
    bound = doc["family"].get("norm_bound")
    if bound is not None and not (_is_number(bound) and bound >= 0):
        _fail("/family/norm_bound", "expected a number >= 0")
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
                if wid not in laws:
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
        if n in n_list[:i]:
            _fail("/N/%d" % i, "duplicate size %d" % n)
    if not _is_int(doc["R"]) or doc["R"] < 2:
        _fail("/R", "expected an integer >= 2")
    if not _is_int(doc["seed"]) or doc["seed"] < 0:
        _fail("/seed", "expected an integer >= 0")
    slack = doc.get("slack", 8.0)
    if not _is_number(slack) or slack < 0:
        _fail("/slack", "expected a number >= 0")
    return ExperimentConfig(
        params, laws, doc["family"], pairs, n_list, doc["R"], doc["seed"],
        float(slack), doc,
    )


def config_hash(doc):
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return sha256(payload.encode()).hexdigest()


def _c2j(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _json_text(record):
    try:
        return json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # NaN and Infinity are not JSON; parse_config rejects them on input too
        raise ValueError("the record holds a non-finite number (NaN or Infinity), "
                         "which JSON cannot represent") from None


def _emit(text, out_path):
    """Write a record's JSON text to ``out_path``, or print it."""
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
    """(phi2 total as a complex value, JSON row of its terms) for each pair."""
    state = FiniteNState(family)
    rows = []
    for p, q in cfg.pairs:
        terms = phi2_terms(p, q, cfg.params, state)
        row = {
            "p": str(p),
            "q": str(q),
            "S1": _c2j(terms.s1),
            "S2": _c2j(terms.s2),
            "S3": _c2j(terms.s3),
            "S4": _c2j(terms.s4),
            "total": _c2j(terms.total),
        }
        rows.append((complex(terms.total), row))
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
    _emit(_json_text(record), args.out)
    return 0


def cmd_theory(args):
    cfg = parse_config(args.config)
    record = _base_record(cfg)
    record["theory"] = {
        str(n): [row for _, row in _theory_rows(cfg, cfg.family(n))] for n in cfg.n_list
    }
    _emit(_json_text(record), args.out)
    return 0


def _samples(cfg, family):
    from .montecarlo import run_traces

    return run_traces(cfg.monomials(), family.N, cfg.r, cfg.laws, family, cfg.seed)


def _cumulants(cfg, samples):
    """Cumulants of orders 2-4 of each monomial's trace; none below R = 100."""
    if cfg.r < 100:
        return {}
    from .montecarlo import empirical_cumulants

    return {
        str(mono): [
            {"order": o, "value": v, "std_error": se}
            for o, v, se in empirical_cumulants(samples, mono)
        ]
        for mono in samples.monomials
    }


def _mc_config(args):
    """The config of a Monte Carlo command, which needs R >= 3."""
    from .montecarlo import MIN_COV_REPLICATES

    cfg = parse_config(args.config)
    if cfg.r < MIN_COV_REPLICATES:
        _fail("/R", "Monte Carlo covariances need R >= %d" % MIN_COV_REPLICATES)
    return cfg


def cmd_mc(args):
    from .montecarlo import empirical_cov

    cfg = _mc_config(args)
    record = _base_record(cfg)
    record["mc"] = []
    for n in cfg.n_list:
        samples = _samples(cfg, cfg.family(n))
        covariances = []
        for p, q in cfg.pairs:
            est, se = empirical_cov(samples, p, q)
            covariances.append(
                {"p": str(p), "q": str(q), "estimate": _c2j(est), "std_error": se}
            )
        record["mc"].append({"N": n, "R": cfg.r, "covariances": covariances,
                             "cumulants": _cumulants(cfg, samples)})
    _emit(_json_text(record), args.out)
    if args.csv:
        import csv

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
    from .graphs import exact_tau2

    return exact_tau2(p, q, family, cfg.laws)


def _oracle_rows(cfg, n):
    family = cfg.family(n)
    rows = []
    for p, q in cfg.pairs:
        value = _oracle_value(cfg, family, p, q)
        if value is None:
            rows.append({"p": str(p), "q": str(q), "skipped": "caps exceeded"})
            continue
        rows.append({"p": str(p), "q": str(q), "value": _c2j(value)})
    return rows


def _dump_partitions(cfg, runs, path):
    """The terms of exact_tau2's walk, once for each pair with a value at some N."""
    from .graphs import build_cycle_graph, classify, weighted_partitions

    dump_rows = []
    for i, (p, q) in enumerate(cfg.pairs):
        if not (p.degree and q.degree and any("value" in rows[i] for rows in runs)):
            continue
        joint = build_cycle_graph([p, q])
        for rgs, g, w2 in weighted_partitions(joint, cfg.laws, 2):
            rep = classify(g)
            dump_rows.append(
                [
                    str(p), str(q), ".".join(map(str, rgs)),
                    float(sum(c.q1 for c in rep.components)),
                    sum(c.q2 for c in rep.components),
                    float(sum(c.q2p for c in rep.components)),
                    ";".join(c.kind for c in rep.components),
                    float(w2),
                ]
            )
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "q", "partition", "q1", "q2", "q2p", "kinds", "omega_x2"])
        w.writerows(dump_rows)


def cmd_oracle(args):
    cfg = parse_config(args.config)
    record = _base_record(cfg)
    record["oracle"] = {str(n): _oracle_rows(cfg, n) for n in cfg.n_list}
    text = _json_text(record)  # a record that is no JSON leaves no dump either
    if args.dump_partitions:
        _dump_partitions(cfg, record["oracle"].values(), args.dump_partitions)
    _emit(text, args.out)
    return 0


def cmd_compare(args, with_cumulants=False):
    """compare (and, with cumulants, report): theory against MC and the oracle."""
    from .montecarlo import empirical_cov

    cfg = _mc_config(args)
    started = time.perf_counter()
    record = _base_record(cfg)
    runs = []
    any_flag = False
    for n in cfg.n_list:
        family = cfg.family(n)
        theory = _theory_rows(cfg, family)
        samples = _samples(cfg, family)
        rows = []
        for (theory_val, t_row), (p, q) in zip(theory, cfg.pairs):
            est, se = empirical_cov(samples, p, q)
            tol = 4.0 * se + cfg.slack / n
            flag = abs(est - theory_val) > tol
            any_flag = any_flag or flag
            row = {
                "p": t_row["p"],
                "q": t_row["q"],
                "theory": t_row,
                "mc_estimate": _c2j(est),
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
            block["cumulants"] = _cumulants(cfg, samples)
        runs.append(block)
    record["runs"] = runs
    record["discrepancy"] = any_flag
    record["timing"] = {"seconds": time.perf_counter() - started}
    _emit(_json_text(record), args.out)
    return 1 if any_flag else 0


COMMANDS = ("pairings", "theory", "mc", "oracle", "compare", "report")


def build_parser(commands=COMMANDS):
    """The parser, with a subparser for each of ``commands``.

    Each subparser costs argparse about 0.6 ms of gettext lookups, so
    ``main`` builds only the one that it runs; the usage lines are the same
    as with all of them.
    """
    parser = argparse.ArgumentParser(
        prog="wignerfluct",
        usage="%%(prog)s [-h] {%s} ..." % ",".join(COMMANDS),
        description="Trace fluctuation covariance for Wigner plus deterministic matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    if "pairings" in commands:
        p = sub.add_parser("pairings", prog="wignerfluct pairings",
                           help="enumerate annular non-crossing pairings")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--through", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_pairings)

    for name, fn, extra in [
        ("theory", cmd_theory, []),
        ("mc", cmd_mc, ["csv"]),
        ("oracle", cmd_oracle, ["dump"]),
        ("compare", cmd_compare, []),
        ("report", functools.partial(cmd_compare, with_cumulants=True), []),
    ]:
        if name not in commands:
            continue
        p = sub.add_parser(name, prog="wignerfluct " + name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if "csv" in extra:
            p.add_argument("--csv", default=None)
        if "dump" in extra:
            p.add_argument("--dump-partitions", dest="dump_partitions", default=None)
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[:1] if argv[:1] and argv[0] in COMMANDS else COMMANDS)
    args = parser.parse_args(argv)
    try:
        # a non-finite result is the error _json_text reports; numpy's
        # warnings would precede it (run_traces passes this to its threads)
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (KeyError, ValueError, MemoryError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def run():
    """``main`` as the program: ``python -m wignerfluct.cli``, the ``wignerfluct`` script.

    ``numpy.random`` imports ``secrets``, whose ``hmac`` would map OpenSSL's
    libcrypto (3.3 MB resident) through ``_hashlib``.  Nothing here uses
    OpenSSL, so the program marks ``_hashlib`` unavailable, and ``hashlib``
    uses its built-in digests.  ``main`` leaves ``sys.modules`` alone.
    """
    sys.modules.setdefault("_hashlib", None)
    return main()


if __name__ == "__main__":
    sys.exit(run())
