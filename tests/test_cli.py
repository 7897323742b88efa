import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

import wignerfluct
from wignerfluct.cli import ConfigError, config_hash, main, parse_config


def run_program(args):
    """``python -m wignerfluct.cli ARGS`` in a fresh interpreter, its output captured."""
    src = pathlib.Path(wignerfluct.__file__).parents[1]
    return subprocess.run([sys.executable, "-m", "wignerfluct.cli"] + args,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))


def write_config(tmp_path, doc, name="config.json"):
    """Write doc as JSON; the string "1e400" is written as that bare number."""
    path = tmp_path / name
    path.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
    return str(path)


def base_config():
    return {
        "ensembles": {"1": {"preset": "gue"}},
        "family": {"matrices": [{"kind": "diagonal_pattern", "values": [1, -1]}]},
        "pairs": [["x1 a0", "x1 a0"]],
        "N": 12,
        "R": 200,
        "seed": 5,
    }


def test_parse_config_ok(tmp_path):
    cfg = parse_config(write_config(tmp_path, base_config()))
    assert cfg.n_list == [12]
    assert cfg.r == 200
    assert "1" in cfg.params
    assert len(cfg.pairs) == 1


def test_parse_config_errors_name_the_field(tmp_path):
    doc = base_config()
    del doc["seed"]
    with pytest.raises(ConfigError, match="seed"):
        parse_config(write_config(tmp_path, doc))

    doc = base_config()
    doc["ensembles"] = {"1": {"preset": "nope"}}
    with pytest.raises(ConfigError, match="/ensembles/1/preset"):
        parse_config(write_config(tmp_path, doc))

    doc = base_config()
    doc["pairs"] = [["x2 a0", "x1 a0"]]
    with pytest.raises(ConfigError, match="/pairs/0"):
        parse_config(write_config(tmp_path, doc))

    doc = base_config()
    doc["N"] = [0]
    with pytest.raises(ConfigError, match="/N/0"):
        parse_config(write_config(tmp_path, doc))

    doc = base_config()
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        parse_config(write_config(tmp_path, doc))

    # booleans are JSON's own type, not integers or numbers; other values
    # of the wrong type fail with the path of the field
    for key, value, path in [
        ("N", [True], "/N/0"),
        ("R", True, "/R"),
        ("seed", True, "/seed"),
        ("slack", False, "/slack"),
        ("seed", -1, "/seed"),
        ("N", [], "/N"),
        ("ensembles", {"1": {"theta": True, "eta": 1, "k4": 1}}, "/ensembles/1/theta"),
        ("ensembles", {"1": {"theta": 0, "eta": False, "k4": 1}}, "/ensembles/1/eta"),
        ("ensembles", {"1": {"theta": 0, "eta": 1, "k4": True}}, "/ensembles/1/k4"),
        ("family", {"matrices": 5}, "/family/matrices"),
        ("family", {"matrices": [{"kind": "identity"}], "norm_bound": "2"},
         "/family/norm_bound"),
    ]:
        doc = base_config()
        doc[key] = value
        with pytest.raises(ConfigError, match=path):
            parse_config(write_config(tmp_path, doc))

    # a matrix spec its builder rejects fails when the family is built
    for i, spec in enumerate(BAD_MATRICES):
        doc = base_config()
        doc["family"] = {"matrices": [{"kind": "identity"}] * i + [spec]}
        cfg = parse_config(write_config(tmp_path, doc))
        with pytest.raises(ConfigError, match="/family/matrices/%d" % i):
            cfg.family(12)


BAD_MATRICES = [
    {"kind": "circulant", "first_row": 5},
    {"kind": "projection", "rank_fraction": "half"},
    {"kind": "diagonal_pattern"},
    {"kind": "nope"},
]


NAN, INF = float("nan"), float("inf")


def test_malformed_values_exit_with_config_error(tmp_path, capsys):
    # (key, value, start of the error line); NaN and Infinity are not JSON
    # numbers, and a literal too large for a float reads as infinite
    cases = [("N", [True], "/"), ("seed", True, "/")]
    cases += [("family", {"matrices": [spec]}, "/") for spec in BAD_MATRICES[:2]]
    for value in (NAN, INF, -INF):
        cases.append(("slack", value, "config is not valid JSON"))
    cases += [
        ("family", {"matrices": [{"kind": "diagonal_pattern", "values": [1, NAN]}]},
         "config is not valid JSON"),
        ("family", {"matrices": [{"kind": "identity"}], "norm_bound": NAN},
         "config is not valid JSON"),
        ("ensembles", {"1": {"theta": 0, "eta": INF, "k4": 1}}, "config is not valid JSON"),
        ("slack", "1e400", "/slack"),
        ("family", {"matrices": [{"kind": "identity"}], "norm_bound": "1e400"},
         "/family/norm_bound"),
        ("family", {"matrices": [{"kind": "identity"}], "norm_bound": -1},
         "/family/norm_bound: expected a number >= 0"),
        ("family", {"matrices": [{"kind": "diagonal_pattern", "values": [1, "1e400"]}]},
         "/family/matrices/0"),
        ("ensembles", {"1": {"theta": "1e400", "eta": 1, "k4": 1}}, "/ensembles/1/theta"),
        # each size once: theory records are keyed by N
        ("N", [6, 6], "/N/1: duplicate size 6"),
        ("N", [6, 7, 6], "/N/2: duplicate size 6"),
    ]
    for key, value, start in cases:
        doc = base_config()
        doc[key] = value
        cfg = write_config(tmp_path, doc)
        for command in ("theory", "compare"):
            assert main([command, "--config", cfg]) == 2, (key, value)
            err = capsys.readouterr().err
            assert err.startswith("config error: " + start), err
            assert "Traceback" not in err


@pytest.mark.parametrize("law, message", [
    ({"theta": 2, "eta": 1, "k4": 0}, "theta must lie in [-1, 1]"),
    ({"theta": -1.5, "eta": 1, "k4": 0}, "theta must lie in [-1, 1]"),
    ({"theta": 0, "eta": -1, "k4": 0}, "eta must be >= 0"),
    ({"theta": 0.5, "eta": 1, "k4": -1.5}, "k4 must be >= -1 - theta^2"),
])
def test_law_outside_its_domain_is_a_config_error(tmp_path, capsys, law, message):
    # the error names the ensemble that holds the law
    doc = base_config()
    doc["ensembles"] = {"1": {"preset": "gue"}, "2": law}
    with pytest.raises(ConfigError, match="^/ensembles/2: "):
        parse_config(write_config(tmp_path, doc))
    for command in ("theory", "mc", "compare"):
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2, command
        err = capsys.readouterr().err
        assert err == "config error: /ensembles/2: %s\n" % message, err


@pytest.mark.parametrize("command", ["theory", "mc", "compare", "oracle"])
def test_non_finite_results_are_an_error_not_invalid_json(tmp_path, command):
    # finite entries whose products overflow: NaN and Infinity are not JSON
    # numbers, so there is no record to write, no verdict and no partition
    # dump; stderr is the one error line, without numpy's overflow warnings,
    # those of Monte Carlo's helper threads at N = 100 included
    doc = base_config()
    doc["family"] = {"matrices": [{"kind": "diagonal_pattern", "values": [1e308, 1e308]}]}
    doc["N"] = [4, 100]
    out = tmp_path / "out.json"
    dump = tmp_path / "dump.csv"
    args = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
    if command == "oracle":
        args += ["--dump-partitions", str(dump)]
    run = run_program(args)
    assert (run.returncode, run.stdout, run.stderr) == (
        2, "", "error: the record holds a non-finite number (NaN or Infinity), "
               "which JSON cannot represent\n")
    assert not out.exists() and not dump.exists()


def test_seed_flag_is_a_usage_error(tmp_path, capsys):
    # a run's seed is the config's, which the record and its hash carry
    cfg = write_config(tmp_path, base_config())
    for command in ("mc", "compare", "report"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_config_seed_sets_the_hash_and_the_estimates(tmp_path):
    records = []
    for seed in (5, 9):
        doc = dict(base_config(), N=6, R=40, seed=seed)
        cfg = write_config(tmp_path, doc, "seed%d.json" % seed)
        out = tmp_path / ("seed%d.out.json" % seed)
        assert main(["mc", "--config", cfg, "--out", str(out)]) == 0
        records.append(json.loads(out.read_text()))
    a, b = records
    assert a["config"]["seed"] == 5 and b["config"]["seed"] == 9
    assert a["config_hash"] != b["config_hash"]
    est = [r["mc"][0]["covariances"][0]["estimate"] for r in records]
    assert est[0] != est[1]


def test_constant_trace_has_zero_oracle_and_covariance(tmp_path):
    doc = base_config()
    doc["pairs"] = [["a0", "x1 x1"], ["x1 a0", "1"]]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "oracle.json"
    dump = tmp_path / "partitions.csv"
    assert main(
        ["oracle", "--config", cfg, "--out", str(out), "--dump-partitions", str(dump)]
    ) == 0
    rows = json.loads(out.read_text())["oracle"]["12"]
    assert [row["value"] for row in rows] == [{"re": 0.0, "im": 0.0}] * 2
    assert dump.read_text().splitlines()[1:] == []
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert [row["oracle"]["re"] for row in rec["runs"][0]["pairs"]] == [0.0, 0.0]


def test_config_hash_key_order_invariant():
    a = {"x": 1, "y": {"a": 2, "b": 3}}
    b = {"y": {"b": 3, "a": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "y": {"a": 2, "b": 3}})


def test_config_hash_is_sha256_without_openssl(tmp_path):
    import hashlib

    doc = base_config()
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert config_hash(doc) == hashlib.sha256(payload).hexdigest()
    # a theory command loads no OpenSSL binding, unless numpy itself does
    script = (
        "import sys, numpy; before = '_hashlib' in sys.modules\n"
        "from wignerfluct.cli import main\n"
        "assert main(['theory', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print(before, '_hashlib' in sys.modules)"
    )
    cfg = write_config(tmp_path, doc)
    src = pathlib.Path(wignerfluct.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", script, cfg, str(tmp_path / "out.json")],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout.split()
    if out[0] == "True":
        pytest.skip("numpy imports _hashlib on its own")
    assert out == ["False", "False"]


def test_gather_member_over_the_norm_bound_is_an_input_error(tmp_path, capsys):
    doc = base_config()
    doc["family"] = {"norm_bound": 2, "matrices": [
        {"kind": "diagonal_pattern", "values": [1, -1]},
        {"kind": "circulant", "first_row": [0, 2.5]},
    ]}
    cfg = write_config(tmp_path, doc)
    for command in ("theory", "mc"):
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: matrix 1 has norm 2.5 > bound 2\n"


def test_pairings_command(tmp_path, capsys):
    out = tmp_path / "pairings.json"
    code = main(["pairings", "--m", "2", "--n", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 2
    assert all(row["through"] == 2 for row in doc["pairings"])
    code = main(["pairings", "--m", "2", "--n", "2", "--through", "1", "--out", str(out)])
    assert json.loads(out.read_text())["count"] == 0
    assert code == 0


def test_pairings_and_theory_reach_the_enumeration_cap(tmp_path, capsys):
    # 18 points: the 44100 pairings of the (9, 9)-annulus, 9 of them spokes only
    out = tmp_path / "pairings.json"
    assert main(["pairings", "--m", "9", "--n", "9", "--through", "9", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 9 and all(row["through"] == 9 for row in doc["pairings"])
    doc = base_config()
    doc["ensembles"]["2"] = {"preset": "gue"}
    doc["family"]["matrices"][0]["values"] = [1, 2]
    doc["pairs"] = [["x1 a0 x2 x1 x2 x1 x2 x1 x2 x1", "x1 x2 x1 x2 x1 x2 x1 x2 x1"]]
    doc["N"] = 4
    cfg = write_config(tmp_path, doc)
    assert main(["theory", "--config", cfg, "--out", str(out)]) == 0
    row = json.loads(out.read_text())["theory"]["4"][0]
    assert row["total"]["re"] != 0
    capsys.readouterr()
    assert main(["pairings", "--m", "10", "--n", "10", "--out", str(out)]) == 2
    assert "m+n=20 exceeds enumeration cap 18" in capsys.readouterr().err
    doc["pairs"] = [["x1 x1 x1 x1 x1 x1 x1 x1 x1 x1", "x1 x1 x1 x1 x1 x1 x1 x1 x1 x1"]]
    cfg = write_config(tmp_path, doc)
    assert main(["theory", "--config", cfg, "--out", str(out)]) == 2
    assert "m+n=20 exceeds enumeration cap 18" in capsys.readouterr().err


def test_theory_command(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "theory.json"
    assert main(["theory", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    row = doc["theory"]["12"][0]
    total = row["S1"]["re"] + row["S2"]["re"] + row["S3"]["re"] + row["S4"]["re"]
    assert total == pytest.approx(row["total"]["re"])


def test_theory_rows_do_not_depend_on_pair_order(tmp_path):
    # the pairs share one state; on this pair order the S1 of ("x1 a1",
    # "x1 a0*") once moved in the last bit when the other pair ran first
    pairs = [["x1 a1* x1 a0*", "x1 a1 a0 x1 a1"], ["x1 a1", "x1 a0*"]]
    doc = base_config()
    doc["ensembles"]["1"] = {"theta": 0.5, "eta": 2, "k4": 1}
    doc["family"]["matrices"] = [
        {"kind": "random_fixed", "seed": 3},
        {"kind": "circulant", "first_row": [0.5, 0.25, 1]},
    ]
    doc["N"] = 5
    rows = []
    for order in (pairs, pairs[::-1]):
        doc["pairs"] = order
        out = tmp_path / "theory.json"
        assert main(["theory", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        rows.append(json.loads(out.read_text())["theory"]["5"])
    assert rows[0] == rows[1][::-1]


def test_mc_command_with_csv(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "mc.json"
    csv_path = tmp_path / "mc.csv"
    assert main(["mc", "--config", cfg, "--out", str(out), "--csv", str(csv_path)]) == 0
    doc = json.loads(out.read_text())
    block = doc["mc"][0]
    assert block["N"] == 12 and block["R"] == 200
    assert block["covariances"][0]["std_error"] > 0
    assert "x1 a0" in block["cumulants"]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("N,p,q")
    assert len(lines) == 2


def test_mc_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["mc", "--config", cfg, "--out", str(out1)])
    main(["mc", "--config", cfg, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_oracle_command(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "oracle.json"
    dump = tmp_path / "partitions.csv"
    assert main(
        ["oracle", "--config", cfg, "--out", str(out), "--dump-partitions", str(dump)]
    ) == 0
    doc = json.loads(out.read_text())
    row = doc["oracle"]["12"][0]
    assert "value" in row
    assert dump.read_text().startswith("p,q,partition")


def test_oracle_dump_matches_full_walk(tmp_path):
    from wignerfluct.graphs import build_cycle_graph, omega_X, quotient, set_partitions
    from wignerfluct.words import parse_word

    doc = base_config()
    doc["ensembles"] = {"1": {"preset": "goe"}}
    doc["pairs"] = [["x1 a0 x1 a0", "x1 a0 x1 a0"], ["x1 a0", "x1 a0 x1"]]
    doc["N"] = 8
    cfg = write_config(tmp_path, doc)
    dump = tmp_path / "partitions.csv"
    out = tmp_path / "oracle.json"
    assert main(
        ["oracle", "--config", cfg, "--out", str(out), "--dump-partitions", str(dump)]
    ) == 0
    rows = list(csv.reader(dump.read_text().splitlines()))[1:]
    laws = parse_config(cfg).laws
    want = []
    for p, q in doc["pairs"]:
        joint = build_cycle_graph([parse_word(p), parse_word(q)])
        for part in set_partitions(joint.vertices):
            w2 = omega_X(quotient(joint, part), laws, order=2)
            if w2 != 0:
                block = {v: b for b, blk in enumerate(part) for v in blk}
                rgs = ".".join(str(block[v]) for v in joint.vertices)
                want.append([p, q, rgs, repr(float(w2))])
    assert want
    assert [[r[0], r[1], r[2], r[7]] for r in rows] == want


def test_oracle_dump_holds_each_valued_pair_once(tmp_path):
    # the walk does not depend on N: a pair's rows appear once if the oracle
    # valued it at some N (N = 40 is over EXACT_N_CAP), in any size order
    doc = base_config()
    doc["pairs"] = [["x1 a0 x1", "x1 a0 x1"], ["x1 a0", "x1 a0"]]
    dump = tmp_path / "partitions.csv"
    dumps = {}
    for sizes in ([4], [4, 40], [40, 4], [4, 6], [40]):
        doc["N"] = sizes
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "oracle.json")
        assert main(["oracle", "--config", cfg, "--out", out, "--dump-partitions", str(dump)]) == 0
        dumps[tuple(sizes)] = dump.read_text()
    header = "p,q,partition,q1,q2,q2p,kinds,omega_x2"
    assert dumps[(4,)].startswith(header + "\n") and len(dumps[(4,)].splitlines()) > 2
    assert dumps[(4, 40)] == dumps[(40, 4)] == dumps[(4, 6)] == dumps[(4,)]
    assert dumps[(40,)].splitlines() == [header]


@pytest.mark.parametrize("command, flag", [
    ("pairings", "--out"), ("mc", "--csv"), ("oracle", "--dump-partitions"),
])
def test_unwritable_output_path_is_an_input_error(tmp_path, capsys, command, flag):
    # exit 1 means a discrepancy; a path into a missing directory is exit 2
    if command == "pairings":
        args = ["pairings", "--m", "2", "--n", "2"]
    else:
        args = [command, "--config", write_config(tmp_path, base_config())]
    missing = str(tmp_path / "missing" / "out.txt")
    assert main(args + [flag, missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err, err
    assert "Traceback" not in err


def test_oracle_skips_over_caps(tmp_path):
    doc = base_config()
    doc["pairs"] = [["x1 a0 x1 a0 x1 a0", "x1 a0 x1 a0 x1 a0"]]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    row = json.loads(out.read_text())["oracle"]["12"][0]
    assert row.get("skipped")


def test_compare_small_run_ok(tmp_path):
    doc = base_config()
    doc["N"] = 24
    doc["R"] = 400
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "compare.json"
    code = main(["compare", "--config", cfg, "--out", str(out)])
    rec = json.loads(out.read_text())
    assert rec["discrepancy"] is False
    assert code == 0
    row = rec["runs"][0]["pairs"][0]
    assert row["tolerance"] > 0
    assert "timing" in rec


def test_report_includes_cumulants(tmp_path, monkeypatch):
    # compare computes no cumulants; report computes each monomial's once.
    # cli imports montecarlo's functions when a command runs them
    from wignerfluct import montecarlo

    calls = []
    empirical_cumulants = montecarlo.empirical_cumulants

    def counted(samples, mono):
        calls.append(str(mono))
        return empirical_cumulants(samples, mono)

    monkeypatch.setattr(montecarlo, "empirical_cumulants", counted)
    doc = base_config()
    doc["N"] = 16
    doc["pairs"] = [["x1 a0", "x1 a0"], ["x1 a0", "x1 a0 x1 a0"]]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "compare.json"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    assert calls == []
    assert "cumulants" not in json.loads(out.read_text())["runs"][0]

    out = tmp_path / "report.json"
    code = main(["report", "--config", cfg, "--out", str(out)])
    rec = json.loads(out.read_text())
    assert code == 0
    assert rec["discrepancy"] is False
    assert calls == ["x1 a0", "x1 a0 x1 a0"]
    mc = tmp_path / "mc.json"
    assert main(["mc", "--config", cfg, "--out", str(mc)]) == 0
    cumulants = json.loads(mc.read_text())["mc"][0]["cumulants"]
    assert sorted(cumulants) == ["x1 a0", "x1 a0 x1 a0"]
    assert rec["runs"][0]["cumulants"] == cumulants


def test_memory_guard_exits_with_input_error(tmp_path, capsys):
    # 50 GUE ensembles at N=1000 trip run_traces' memory guard before sampling
    ids = [str(i) for i in range(1, 51)]
    doc = base_config()
    doc["ensembles"] = {wid: {"preset": "gue"} for wid in ids}
    doc["family"] = {"matrices": [{"kind": "identity"}]}
    doc["pairs"] = [["x%s" % wid, "x%s" % wid] for wid in ids]
    doc["N"] = 1000
    cfg = write_config(tmp_path, doc)
    assert main(["mc", "--config", cfg]) == 2
    assert "error: " in capsys.readouterr().err


def test_out_of_range_matrix_index_is_a_config_error(tmp_path, capsys):
    # the family has one matrix, a0; a word naming a3 (or a1 inside a
    # degree-0 word) is rejected by parse_config, not by an IndexError
    for pair in (["x1 a3", "x1 a3"], ["x1 a0", "a1 a0"]):
        doc = base_config()
        doc["pairs"] = [pair]
        cfg = write_config(tmp_path, doc)
        for command in ("theory", "mc", "oracle", "compare"):
            assert main([command, "--config", cfg]) == 2, (pair, command)
            err = capsys.readouterr().err
            assert err.startswith("config error: /pairs/0: word uses a"), err
            assert "the family has no matrix with index" in err
            assert "Traceback" not in err


def test_two_stars_in_a_token_are_a_config_error(tmp_path, capsys):
    doc = base_config()
    doc["family"]["matrices"].append({"kind": "circulant", "first_row": [0, 1]})
    for word in ("x1 a1**", "x1 a1*t*"):
        doc["pairs"] = [["x1 a0", "x1 a0"], [word, "x1 a1"]]
        cfg = write_config(tmp_path, doc)
        for command in ("theory", "compare"):
            assert main([command, "--config", cfg]) == 2, (word, command)
            err = capsys.readouterr().err
            assert err.startswith("config error: /pairs/1: "), err
            assert "two stars" in err
            assert "Traceback" not in err


def test_underscore_in_a_matrix_index_is_a_config_error(tmp_path, capsys):
    # "a0_1" is no index: int() would read it as a1, another family matrix
    doc = base_config()
    doc["family"]["matrices"].append({"kind": "circulant", "first_row": [0, 1]})
    doc["pairs"] = [["x1 a0_1", "x1 a1"]]
    assert main(["theory", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: /pairs/0: "), err
    assert "digits 0-9" in err and "Traceback" not in err


def test_main_exit_code_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["theory", "--config", str(bad)]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["theory", "--config", missing]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_monte_carlo_commands_need_three_replicates(tmp_path, capsys):
    doc = base_config()
    doc["R"] = 2
    cfg = write_config(tmp_path, doc)
    out = str(tmp_path / "out.json")
    for command in ("mc", "compare", "report"):
        assert main([command, "--config", cfg, "--out", out]) == 2, command
        assert capsys.readouterr().err.startswith("config error: /R: "), command
    # no Monte Carlo, so two replicates are fine
    for command in ("theory", "oracle"):
        assert main([command, "--config", cfg, "--out", out]) == 0, command


@pytest.mark.parametrize("argv", [
    ["--help"], ["theory", "--help"], ["mc", "--help"], ["pairings", "--m", "2"],
    ["theory", "--config", "c.json", "extra"], ["thoery"], [],
])
def test_main_parses_as_the_full_parser(argv, capsys):
    # main builds only the subparser it runs; its help and usage errors read
    # as those of the parser with every subcommand
    from wignerfluct.cli import build_parser

    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert got.value.code == full.value.code
    assert capsys.readouterr() == want
