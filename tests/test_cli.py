import csv
import json

import pytest

from wignerfluct.cli import ConfigError, config_hash, main, parse_config


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
        ("family", {"matrices": [{"kind": "diagonal_pattern", "values": [1, "1e400"]}]},
         "/family/matrices/0"),
        ("ensembles", {"1": {"theta": "1e400", "eta": 1, "k4": 1}}, "/ensembles/1/theta"),
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


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config())
    for command in ("mc", "compare"):
        assert main([command, "--config", cfg, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error: /seed")


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
        for pid, part in enumerate(set_partitions(joint.vertices)):
            w2 = omega_X(quotient(joint, part), laws, order=2)
            if w2 != 0:
                want.append([p, q, str(pid), repr(float(w2))])
    assert want
    assert [[r[0], r[1], r[2], r[7]] for r in rows] == want


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


def test_report_includes_cumulants(tmp_path):
    doc = base_config()
    doc["N"] = 16
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "report.json"
    code = main(["report", "--config", cfg, "--out", str(out)])
    rec = json.loads(out.read_text())
    assert code == 0
    assert rec["discrepancy"] is False
    assert "cumulants" in rec["runs"][0]


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


def test_main_exit_code_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["theory", "--config", str(bad)]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["theory", "--config", missing]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
