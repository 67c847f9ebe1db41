from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import pytest

from splitforge import cli
from splitforge.structures import LabeledHypergraph, SplitPartition


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def payload_of(doc: dict) -> dict:
    d = dict(doc)
    d.pop("provenance")
    return d


def k22_files(tmp_path: Path):
    g = write_json(
        tmp_path / "k22.json",
        {
            "m": 2,
            "vertices": ["a0", "a1", "b0", "b1"],
            "edges": [[0, 2], [0, 3], [1, 2], [1, 3]],
        },
    )
    p = write_json(tmp_path / "k22_parts.json", {"k": 2, "parts": [[0, 1], [2, 3]]})
    return g, p


# ---------------------------------------------------------------------------
# construct + round trips


def test_construct_wenger_files_and_verify(tmp_path):
    g = tmp_path / "g.json"
    p = tmp_path / "p.json"
    code = cli.main(
        ["construct", "wenger", "--M", "2", "--q", "3", "--out", str(g), "--partition", str(p)]
    )
    assert code == 0
    gdoc, pdoc = load(g), load(p)
    assert len(gdoc["vertices"]) == 54
    assert pdoc["k"] == 6
    assert len(pdoc["parts"]) == 9
    assert gdoc["provenance"]["command"] == "construct"
    assert gdoc["provenance"]["params"]["family"] == "wenger"
    assert cli.main(["verify", "--graph", str(g), "--partition", str(p), "--forbid", "C_6"]) == 0


def test_construct_wenger_m1_partition_rejected(tmp_path):
    code = cli.main(
        [
            "construct", "wenger", "--M", "1", "--q", "3",
            "--out", str(tmp_path / "g.json"),
            "--partition", str(tmp_path / "p.json"),
        ]
    )
    assert code == 2
    assert not (tmp_path / "g.json").exists()


def test_construct_berge3_vertex_count(tmp_path):
    g = tmp_path / "b3.json"
    p = tmp_path / "b3p.json"
    assert cli.main(["construct", "berge3", "--q", "9", "--out", str(g), "--partition", str(p)]) == 0
    assert len(load(g)["vertices"]) == 72
    assert (
        cli.main(
            ["verify", "--graph", str(g), "--partition", str(p), "--forbid", "bergeC_2"]
        )
        == 0
    )


def test_construct_design_fano(tmp_path):
    g = tmp_path / "fano.json"
    assert cli.main(["construct", "design", "--id", "fano", "--out", str(g)]) == 0
    assert len(load(g)["vertices"]) == 21
    assert cli.main(["construct", "design", "--id", "nope", "--out", str(g)]) == 2


def test_construct_property_b_round_trip(tmp_path):
    g = tmp_path / "pb.json"
    p = tmp_path / "pbp.json"
    code = cli.main(
        [
            "construct", "property-B", "--m", "2", "--c", "1,1", "--r", "4",
            "--out", str(g), "--partition", str(p),
        ]
    )
    assert code == 0
    assert load(p)["k"] == 2
    assert cli.main(["verify", "--graph", str(g), "--partition", str(p)]) == 0


def test_construct_norm_quotient_partition_and_stats(tmp_path):
    g = tmp_path / "nq.json"
    p = tmp_path / "nqp.json"
    code = cli.main(
        [
            "construct", "norm-quotient", "--q", "9", "--t", "2",
            "--h", "4", "--a", "2", "--seed", "11",
            "--out", str(g), "--partition", str(p),
        ]
    )
    assert code == 0
    pdoc = load(p)
    assert len(pdoc["parts"]) == 18
    assert pdoc["patch_stats"]["strategy"] == "matching"
    assert (
        cli.main(["verify", "--graph", str(g), "--partition", str(p), "--forbid", "K_{2,2}"])
        == 0
    )


def test_construct_norm_quotient_partition_needs_h_and_a(tmp_path):
    code = cli.main(
        [
            "construct", "norm-quotient", "--q", "9", "--t", "2",
            "--out", str(tmp_path / "g.json"),
            "--partition", str(tmp_path / "p.json"),
        ]
    )
    assert code == 2


def test_construct_theta_invalid_q_fast(tmp_path):
    assert cli.main(["construct", "theta", "--q", "4", "--out", str(tmp_path / "t.json")]) == 2


def test_construct_oversized_host_exits_2_before_allocating(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert cli.main(["construct", "wenger", "--M", "40", "--q", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "wenger W_40(2) would have 2^42 edges, above the ceiling of" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("family", ["wenger", "theta", "berge3", "norm-quotient"])
def test_construct_huge_prime_q_exits_2_fast(family, tmp_path, capsys):
    # 2^61 - 1 is prime: factoring it by trial division would take minutes
    argv = ["construct", family, "--q", str(2**61 - 1), "--out", str(tmp_path / "g.json")]
    argv += {"wenger": ["--M", "1"], "norm-quotient": ["--t", "2"]}.get(family, [])
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds the field-size cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify exit codes


def test_verify_forbidden_found_is_4(tmp_path):
    g, p = k22_files(tmp_path)
    code = cli.main(
        ["verify", "--graph", str(g), "--partition", str(p), "--forbid", "K_{2,2}",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 4
    doc = load(tmp_path / "r.json")
    hits = [w for w in doc["forbidden"] if w["witness"] is not None]
    assert len(hits) == 1
    assert hits[0]["pattern"] == "K_{2,2}"


def test_verify_incomplete_takes_precedence(tmp_path):
    g, _ = k22_files(tmp_path)
    p = write_json(tmp_path / "split3.json", {"k": 2, "parts": [[0, 1], [2], [3]]})
    code = cli.main(
        ["verify", "--graph", str(g), "--partition", str(p), "--forbid", "K_{2,2}"]
    )
    assert code == 3


def test_verify_clean_exit_0(tmp_path):
    g, p = k22_files(tmp_path)
    assert cli.main(["verify", "--graph", str(g), "--partition", str(p), "--forbid", "C_6"]) == 0


# ---------------------------------------------------------------------------
# spectrum / mixing


def test_spectrum_c4(tmp_path, capsys):
    g = write_json(
        tmp_path / "c4.json",
        {"m": 2, "vertices": ["v0", "v1", "v2", "v3"], "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
    )
    assert cli.main(["spectrum", "--graph", str(g)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bipartite"] is True
    assert doc["d"] == 2
    assert abs(doc["rho"]) < 1e-9
    assert doc["provenance"]["inputs"][str(g)].startswith("sha256:")


def cycle_doc(n: int) -> dict:
    return {"m": 2, "vertices": [f"v{i}" for i in range(n)],
            "edges": [[i, (i + 1) % n] for i in range(n)]}


def test_spectrum_manifest_names_the_route(tmp_path):
    petersen = {"m": 2, "vertices": [f"v{i}" for i in range(10)],
                "edges": [[i, (i + 1) % 5] for i in range(5)]
                + [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
                + [[i, 5 + i] for i in range(5)]}
    for name, graph, route in (("c4", cycle_doc(4), "dense-svd"), ("petersen", petersen, "dense-eigh"),
                               ("c6000", cycle_doc(6000), "iterative")):
        g, out = write_json(tmp_path / f"{name}.json", graph), tmp_path / f"{name}_spec.json"
        assert cli.main(["spectrum", "--graph", str(g), "--out", str(out)]) == 0
        doc = load(out)
        assert doc["provenance"]["paths"] == {"spectrum": route}, name
        assert "paths" not in payload_of(doc)


def test_spectrum_rejects_irregular(tmp_path):
    g = write_json(
        tmp_path / "p3.json",
        {"m": 2, "vertices": ["v0", "v1", "v2"], "edges": [[0, 1], [1, 2]]},
    )
    assert cli.main(["spectrum", "--graph", str(g)]) == 2


def test_mixing_bipartite_mode(tmp_path, capsys):
    g, _ = k22_files(tmp_path)
    code = cli.main(
        ["mixing", "--graph", str(g), "--U", "0,1", "--W", "2,3", "--mode", "bipartite"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["lhs"] <= doc["bound"] + 1e-9
    # same-side sets are a usage error
    assert (
        cli.main(["mixing", "--graph", str(g), "--U", "0", "--W", "1", "--mode", "bipartite"])
        == 2
    )


# ---------------------------------------------------------------------------
# bound


def test_bound_lower(tmp_path):
    out = tmp_path / "b.json"
    code = cli.main(
        ["bound", "--lower", "--r", "100", "--m", "2", "--C", "1", "--e", "1.5",
         "--out", str(out)]
    )
    assert code == 0
    doc = load(out)
    assert doc["quantity"] == "min-k-lower"
    assert doc["value"] == "3"
    assert doc["relaxed"]["value"] == "3"
    assert doc["formula_ref"] == "lb.exact-binomial"
    assert doc["relaxed"]["formula_ref"] == "lb.relaxed-power"


def test_bound_lower_rejects_a_huge_exponent_denominator(capsys):
    code = cli.main(["bound", "--lower", "--r", "100", "--m", "2", "--e", "1.0000000001"])
    assert code == 2
    assert "exponent e = 10000000001/10000000000" in capsys.readouterr().err


def test_bound_berge_path_and_tree(capsys):
    assert cli.main(["bound", "--berge-path", "--r", "7", "--m", "2", "--t", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "3"
    assert doc["formula_ref"] == "lb.berge-path-replication"
    assert cli.main(["bound", "--tree", "--r", "8", "--t", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "7/2"
    assert abs(doc["value_float"] - 3.5) < 1e-12


@pytest.mark.parametrize("argv, missing", [
    (["--berge-path", "--r", "5"], "--m, --t"),
    (["--tree", "--t", "3"], "--r"),
    (["--lower", "--m", "2"], "--r"),
    (["--admissible"], "--d"),
    (["--k2d"], "--d"),
])
def test_bound_missing_flag_exits_2(argv, missing, capsys):
    assert cli.main(["bound", *argv]) == 2
    err = capsys.readouterr().err
    assert f"needs {missing}" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["C", "e"])
def test_bound_lower_zero_denominator_exits_2(flag, capsys):
    assert cli.main(["bound", "--lower", "--r", "100", "--m", "2", f"--{flag}", "1/0"]) == 2
    err = capsys.readouterr().err
    assert f"{flag} is not a rational value: '1/0'" in err and "Traceback" not in err


def test_bound_admissible(capsys):
    assert cli.main(["bound", "--admissible", "--d", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d1"] == 2
    assert doc["d2"] == 3
    assert doc["x0"] == 1
    assert doc["primes"] == [7, 13, 19, 31]
    assert doc["r_values"][0] == 98
    assert doc["value"] == "5/6"


@pytest.mark.parametrize("argv", [
    ["--admissible", "--d", str(10**20)],
    ["--lower", "--r", "10000000000", "--m", "3", "--C", "1", "--e", "101/100"],
])
def test_bound_out_of_range_exits_2_fast(argv, capsys):
    start = time.perf_counter()
    assert cli.main(["bound", *argv]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("invalid parameters or input") and "Traceback" not in err


def test_bound_k2d_and_table(capsys):
    assert cli.main(["bound", "--k2d", "--d", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["value_float"] - 2.24912726710289) < 1e-9
    assert cli.main(["bound", "--k2d", "--d", "11"]) == 2
    assert cli.main(["bound", "--table"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["value"]["2"] == 1.89
    assert doc["value"]["14"] == 0.93


# ---------------------------------------------------------------------------
# oracle


def test_oracle_certificate_round_trip(tmp_path):
    out = tmp_path / "o.json"
    cg = tmp_path / "og.json"
    cp = tmp_path / "op.json"
    code = cli.main(
        ["oracle", "--r", "4", "--m", "2", "--k-max", "3", "--forbid", "C_4",
         "--out", str(out), "--cert-graph", str(cg), "--cert-partition", str(cp)]
    )
    assert code == 0
    doc = load(out)
    assert doc["status"] == "found"
    assert doc["value"] == 2
    assert cli.main(["verify", "--graph", str(cg), "--partition", str(cp), "--forbid", "C_4"]) == 0


def test_oracle_exhausted_is_still_success(tmp_path):
    out = tmp_path / "o.json"
    code = cli.main(
        ["oracle", "--r", "3", "--m", "2", "--k-max", "1", "--forbid", "C_3",
         "--out", str(out)]
    )
    assert code == 0
    doc = load(out)
    assert doc["status"] == "exhausted"
    assert doc["value"] is None
    assert doc["certificate"] is None


def test_oracle_budget_exit_5(tmp_path, capsys):
    code = cli.main(
        ["oracle", "--r", "4", "--m", "2", "--k-max", "2", "--forbid", "C_4",
         "--budget", "3", "--out", str(tmp_path / "o.json")]
    )
    assert code == 5
    assert "3 edge placements exhausted at r=4, m=2, k=1" in capsys.readouterr().err


@pytest.mark.parametrize("m, spec, message", [
    ("3", "C_4", "this decider needs a 2-uniform graph, got m=3"),
    ("2", "bergeC_2", "Berge cycle detection expects a hypergraph with m >= 3"),
])
def test_oracle_pattern_that_does_not_fit_m_exits_2(tmp_path, capsys, m, spec, message):
    code = cli.main(["oracle", "--r", "4", "--m", m, "--k-max", "2", "--forbid", spec,
                     "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_oracle_payload_digest_frozen(tmp_path):
    out = tmp_path / "o.json"
    assert cli.main(["oracle", "--r", "4", "--m", "2", "--k-max", "3", "--forbid", "C_4",
                     "--out", str(out)]) == 0
    doc = load(out)
    assert doc["provenance"]["payload_sha256"] == \
        "7d6ab6eb9d108d777b84994079f8c765744c2fc227466e049bca44a95a6a2704"
    # the check path is in the manifest only, outside the hashed payload
    assert doc["provenance"]["paths"] == {"C_{4}": "incremental"}
    assert "paths" not in payload_of(doc)


# ---------------------------------------------------------------------------
# partition-greedy


def test_partition_greedy_round_trip(tmp_path):
    g = tmp_path / "w13.json"
    assert cli.main(["construct", "wenger", "--M", "1", "--q", "3", "--out", str(g)]) == 0
    g2 = tmp_path / "w13_aug.json"
    p = tmp_path / "w13_parts.json"
    tr = tmp_path / "trace.jsonl"
    code = cli.main(
        ["partition-greedy", "--graph", str(g), "--m", "3", "--forbid", "K_{2,2}",
         "--seed", "5", "--seed-size", "1",
         "--out-graph", str(g2), "--out-partition", str(p), "--trace", str(tr)]
    )
    assert code == 0
    pdoc = load(p)
    assert len(pdoc["parts"]) == 3
    assert "trace" in pdoc
    assert cli.main(["verify", "--graph", str(g2), "--partition", str(p), "--forbid", "K_{2,2}"]) == 0
    lines = [json.loads(line) for line in tr.read_text(encoding="utf-8").splitlines()]
    assert lines, "trace file must not be empty"
    assert "provenance" in lines[-1]
    for rec in lines[:-1]:
        assert {"iter", "max_s", "added"} <= set(rec)


def test_partition_greedy_seed_size_zero_exits_2(tmp_path, capsys):
    g = tmp_path / "w15.json"
    assert cli.main(["construct", "wenger", "--M", "1", "--q", "5", "--out", str(g)]) == 0
    capsys.readouterr()
    code = cli.main(
        ["partition-greedy", "--graph", str(g), "--m", "3", "--forbid", "K_{2,2}",
         "--seed-size", "0", "--out-graph", str(tmp_path / "o.json"),
         "--out-partition", str(tmp_path / "p.json")]
    )
    assert code == 2
    assert "seed_size must be positive" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_partition_greedy_infeasible_exit_3(tmp_path):
    # the Petersen graph has diameter 2, so no part can hold two seeds
    # at distance >= 3 and seeding with seed_size=2 must abort
    outer = [[i, (i + 1) % 5] for i in range(5)]
    inner = [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
    spokes = [[i, 5 + i] for i in range(5)]
    g = write_json(
        tmp_path / "petersen.json",
        {"m": 2, "vertices": [f"v{i}" for i in range(10)], "edges": outer + inner + spokes},
    )
    code = cli.main(
        ["partition-greedy", "--graph", str(g), "--m", "2", "--forbid", "C_4",
         "--seed-size", "2", "--out-graph", str(tmp_path / "o.json"),
         "--out-partition", str(tmp_path / "p.json")]
    )
    assert code == 3


def test_partition_greedy_budget_exit_5(tmp_path, capsys):
    # six parts of three seeds on W_1(5): the seed search spends its node
    # budget undecided, which is exit 5, not the exit 3 of a proof that no
    # seeding exists (BudgetExceededError subclasses RuntimeError)
    g = tmp_path / "w15.json"
    assert cli.main(["construct", "wenger", "--M", "1", "--q", "5", "--out", str(g)]) == 0
    capsys.readouterr()
    code = cli.main(
        ["partition-greedy", "--graph", str(g), "--m", "6", "--forbid", "K_{2,2}",
         "--out-graph", str(tmp_path / "o.json"), "--out-partition", str(tmp_path / "p.json")]
    )
    assert code == 5
    err = capsys.readouterr().err
    assert "undecided" in err and "placed 16 of 18 seeds" in err
    assert not (tmp_path / "o.json").exists()


# ---------------------------------------------------------------------------
# manifests, determinism, threads


def test_payload_digest_matches(tmp_path):
    g = tmp_path / "g.json"
    assert cli.main(["construct", "wenger", "--M", "2", "--q", "3", "--out", str(g)]) == 0
    doc = load(g)
    payload = payload_of(doc)
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    assert doc["provenance"]["payload_sha256"] == digest
    assert doc["provenance"]["version"]
    assert doc["provenance"]["wall_time_ms"] >= 0
    # the written graph loads back into the domain type
    G = LabeledHypergraph.from_json_dict(payload)
    assert G.n == 54


def test_documents_are_written_in_canonical_form(tmp_path, capsys):
    g = tmp_path / "g.json"
    assert cli.main(["construct", "wenger", "--M", "2", "--q", "3", "--out", str(g)]) == 0
    raw = g.read_bytes()
    canon = json.dumps(json.loads(raw), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert raw == canon.encode("utf-8") + b"\n"
    assert cli.main(["spectrum", "--graph", str(g)]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"),
                             ensure_ascii=False) + "\n"


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    g = tmp_path / "g.json"
    g.write_bytes(b"old bytes")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    assert cli.main(["construct", "wenger", "--M", "2", "--q", "3", "--out", str(g)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert g.read_bytes() == b"old bytes"
    assert sorted(tmp_path.iterdir()) == [g]


def test_failed_trace_write_keeps_the_old_trace(tmp_path, monkeypatch, capsys):
    g = tmp_path / "w13.json"
    assert cli.main(["construct", "wenger", "--M", "1", "--q", "3", "--out", str(g)]) == 0
    tr = tmp_path / "trace.jsonl"
    tr.write_bytes(b"old trace")
    replace = cli.os.replace

    def fail_trace(src, dst):
        if str(dst).endswith(".jsonl"):
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", fail_trace)
    code = cli.main(
        ["partition-greedy", "--graph", str(g), "--m", "3", "--forbid", "K_{2,2}",
         "--seed", "5", "--seed-size", "1", "--out-graph", str(tmp_path / "g2.json"),
         "--out-partition", str(tmp_path / "p.json"), "--trace", str(tr)]
    )
    assert code == 2
    assert "disk full" in capsys.readouterr().err
    assert tr.read_bytes() == b"old trace"
    assert not list(tmp_path.glob("*.tmp"))


def test_threads_do_not_change_payload(tmp_path):
    docs = []
    for threads, name in [("1", "a"), ("4", "b")]:
        g = tmp_path / f"g{name}.json"
        p = tmp_path / f"p{name}.json"
        code = cli.main(
            ["construct", "norm-quotient", "--q", "9", "--t", "2",
             "--h", "4", "--a", "2", "--seed", "7", "--patch-strategy", "greedy_reuse",
             "--threads", threads, "--out", str(g), "--partition", str(p)]
        )
        assert code == 0
        docs.append((load(g), load(p)))
    (ga, pa), (gb, pb) = docs
    assert payload_of(ga) == payload_of(gb)
    assert payload_of(pa) == payload_of(pb)
    assert ga["provenance"]["payload_sha256"] == gb["provenance"]["payload_sha256"]
    assert pa["provenance"]["payload_sha256"] == pb["provenance"]["payload_sha256"]
    assert ga["provenance"]["threads"] == 1
    assert gb["provenance"]["threads"] == 4


def test_threads_env_fallback(tmp_path, monkeypatch, capsys):
    g = write_json(
        tmp_path / "c4.json",
        {"m": 2, "vertices": ["v0", "v1", "v2", "v3"], "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
    )
    # only the flag is recorded; the environment is not read
    monkeypatch.setenv("SPLITFORGE_THREADS", "zero")
    assert cli.main(["spectrum", "--graph", str(g)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["provenance"]["threads"] == 1
    assert cli.main(["spectrum", "--graph", str(g), "--threads", "0"]) == 2


def test_missing_input_file_is_validation_error(tmp_path):
    assert cli.main(["verify", "--graph", str(tmp_path / "no.json"),
                     "--partition", str(tmp_path / "nope.json")]) == 2


# ---------------------------------------------------------------------------
# hostile input documents


def _k22_docs():
    graph = {"m": 2, "vertices": ["a0", "a1", "b0", "b1"],
             "edges": [[0, 2], [0, 3], [1, 2], [1, 3]]}
    return graph, {"k": 2, "parts": [[0, 1], [2, 3]]}


def _set(doc, key, value):
    doc[key] = value
    return doc


@pytest.mark.parametrize("mutate, named", [
    (lambda g, p: (_set(g, "edges", [[0, 2], [0, 3.0], [1, 2], [1, 3]]), p), "'edges'"),
    (lambda g, p: (g, _set(p, "parts", [[0, 1.0], [2, 3]])), "'parts'"),
    (lambda g, p: (_set(g, "edges", [[0, 2], [0, "3"], [1, 2], [1, 3]]), p), "'edges'"),
    (lambda g, p: (_set(g, "edges", [[0, 2], [0, 3], [True, 2], [1, 3]]), p), "'edges'"),
    (lambda g, p: (g, _set(p, "parts", [[0, True], [2, 3]])), "'parts'"),
    (lambda g, p: (_set(g, "edges", [0, 2]), p), "'edges'"),
    (lambda g, p: (_set(g, "m", "2"), p), "'m'"),
    (lambda g, p: (_set(g, "m", True), p), "'m'"),
    (lambda g, p: (g, _set(p, "k", 2.0)), "'k'"),
    (lambda g, p: (_set(g, "vertices", "abcd"), p), "'vertices'"),
    (lambda g, p: ([g], p), "JSON object"),
    (lambda g, p: (g, [p]), "JSON object"),
    (lambda g, p: (g, _set(p, "parts", [[0, 1], [2, 2**70]])), str(2**70)),
    (lambda g, p: (_set(g, "edges", [[0, 2], [0, 2**70], [1, 2], [1, 3]]), p), str(2**70)),
    (lambda g, p: (_set(g, "edges", [[0, 1, 2], [1, 2, 3]]), p), "edge (0, 1, 2)"),
], ids=["float-edge-vertex", "float-part-vertex", "string-edge-vertex", "bool-edge-vertex",
        "bool-part-vertex", "flat-edges", "string-m", "bool-m", "float-k", "string-vertices",
        "array-graph", "array-partition", "huge-part-vertex", "huge-edge-vertex",
        "three-vertex-edges"])
def test_hostile_documents_exit_2(tmp_path, capsys, mutate, named):
    graph, parts = mutate(*_k22_docs())
    g = write_json(tmp_path / "g.json", graph)
    p = write_json(tmp_path / "p.json", parts)
    assert cli.main(["verify", "--graph", str(g), "--partition", str(p),
                     "--forbid", "C_4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid parameters or input: ") and named in err


def test_missing_key_exits_2_but_internal_key_error_does_not(tmp_path, monkeypatch):
    graph, parts = _k22_docs()
    del graph["edges"]
    g = write_json(tmp_path / "g.json", graph)
    p = write_json(tmp_path / "p.json", parts)
    args = ["verify", "--graph", str(g), "--partition", str(p)]
    assert cli.main(args) == 2

    def broken(*a, **kw):
        raise KeyError("internal")

    # a KeyError inside a command is a bug, not invalid input
    monkeypatch.setattr(cli, "verify_rk", broken)
    g, p = k22_files(tmp_path)
    with pytest.raises(KeyError):
        cli.main(["verify", "--graph", str(g), "--partition", str(p)])
