"""Documents between bytes and arrays: `cli._emit` writes what the
json.dumps writer (`cli._canonical`) would, and `cli._load`'s exact path
for canonical graph documents reads what json.loads and `from_json_dict`
would, with the same exit code, message and payload for every document
it declines."""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest
from test_frozen_outputs import RECIPES

from splitforge import cli, constructions
from splitforge.forbidden import parse_pattern
from splitforge.oracle import OracleQuery, exact_f
from splitforge.structures import LabeledHypergraph, SplitPartition

MANIFEST = {"command": "test", "params": {"family": "k22"}, "wall_time_ms": 0}


def json_writer(payload: dict, manifest: dict) -> str:
    """The document as the json.dumps writer makes it: the whole payload
    encoded for its digest, then the whole document."""
    digest = hashlib.sha256(cli._canonical(payload).encode("utf-8")).hexdigest()
    return cli._canonical(dict(payload, provenance=dict(manifest, payload_sha256=digest))) + "\n"


def emitted(capsys, payload: dict, manifest: dict = MANIFEST) -> str:
    capsys.readouterr()
    cli._emit(payload, manifest, None)
    return capsys.readouterr().out


def assert_canonical(raw: bytes) -> None:
    """`raw` is the json.dumps writer's document of its own values."""
    doc = json.loads(raw)
    payload = {k: v for k, v in doc.items() if k != "provenance"}
    assert raw.decode("utf-8") == json_writer(payload, doc["provenance"])


# ------------------------------------------------------------------ writing


def test_emit_matches_the_json_writer_on_every_recipe(capsys):
    for tag, (args, _, _) in RECIPES.items():
        ns = cli._build_parser().parse_args(["construct", *args, "--out", "g", "--partition", "p"])
        _, G, P, extra = cli._construct_payloads(ns)
        assert emitted(capsys, cli._graph_payload(G)) == json_writer(G.to_json_dict(), MANIFEST)
        # to_json_dict stays plain lists: benchmarks and certificates json.dumps it
        assert type(G.to_json_dict()["edges"]) is list, tag
        assert type(P.to_json_dict()["parts"]) is list, tag


@pytest.mark.parametrize("rows", [
    np.zeros((0, 2), np.int64), np.array([[0, 7]]), np.array([[3, 10 ** 12, 2 ** 63 - 1]]),
], ids=["empty", "one-row", "wide-values"])
def test_int_rows_writer_matches_json(rows):
    assert cli._int_rows(rows) == cli._canonical(rows.tolist())


def test_int_rows_writer_matches_json_on_seeded_arrays():
    # widths 1-4, up to 200 rows, values drawn at every digit-count edge
    # and between them, so each group count and leading-zero cut shows
    edges = [0, 9, 10, 9999, 10000, 10 ** 8, 10 ** 12, 2 ** 63 - 1]
    rng = np.random.default_rng(20261020)
    for i in range(400):
        shape = int(rng.integers(0, 201)), int(rng.integers(1, 5))
        if i % 2:
            rows = rng.choice(np.array(edges, np.int64), shape)
        else:  # uniform below a random power of 10 up to 10**18, or below 2**63
            top = 2 ** 63 - 1 if i % 10 == 0 else 10 ** int(rng.integers(1, 19))
            rows = rng.integers(0, top, shape, dtype=np.int64, endpoint=True)
        assert cli._int_rows(rows) == cli._canonical(rows.tolist())


def test_emit_keeps_other_values_and_key_order(capsys):
    # "provenance" sorts between payload keys, and nested documents, floats
    # and non-ASCII text go through json.dumps
    payload = {"vertices": ["é", " "], "edges": cli._Encoded("[[0,1]]"), "m": 2,
               "report": {"b": 1.5, "a": [None, True]}, "zeta": float("inf")}
    plain = dict(payload, edges=[[0, 1]])
    assert emitted(capsys, payload) == json_writer(plain, MANIFEST)


def test_every_command_writes_the_json_writers_bytes(tmp_path, capsys):
    g, p = w13_documents(tmp_path)
    outs = [g]
    o, cg, cp = tmp_path / "o.json", tmp_path / "og.json", tmp_path / "op.json"
    assert cli.main(["oracle", "--r", "4", "--m", "2", "--k-max", "3", "--forbid", "C_4",
                     "--out", str(o), "--cert-graph", str(cg), "--cert-partition", str(cp)]) == 0
    outs += [o, cg, cp]
    g2, p2 = tmp_path / "w13_aug.json", tmp_path / "w13_split.json"
    assert cli.main(["partition-greedy", "--graph", str(g), "--m", "3", "--forbid", "K_{2,2}",
                     "--seed", "5", "--seed-size", "1",
                     "--out-graph", str(g2), "--out-partition", str(p2)]) == 0
    outs += [g2, p2]
    rep = tmp_path / "report.json"
    assert cli.main(["verify", "--graph", str(g2), "--partition", str(p2), "--forbid", "K_{2,2}",
                     "--out", str(rep)]) == 0
    outs.append(rep)
    for path in outs:
        assert_canonical(path.read_bytes())
    # the oracle's certificate pair is the certificate in its payload
    cert = json.loads(o.read_bytes())["certificate"]
    assert {k: v for k, v in json.loads(cg.read_bytes()).items() if k != "provenance"} == \
        cert["graph"]
    res = exact_f(OracleQuery(4, 2, 3, (parse_pattern("C_4"),)))
    assert emitted(capsys, cli._graph_payload(res.graph)) == \
        json_writer(res.graph.to_json_dict(), MANIFEST)


# ------------------------------------------------------------------ reading


def run_verify(capsys, g, p, exact: bool, monkeypatch, *forbid):
    """verify's exit code, stderr and output document (wall time dropped),
    with the exact path on or off."""
    with monkeypatch.context() as mp:
        if not exact:
            mp.setattr(cli, "_read_exact", lambda raw: None)
        argv = ["verify", "--graph", str(g), "--partition", str(p)]
        for spec in forbid:
            argv += ["--forbid", spec]
        capsys.readouterr()
        code = cli.main(argv)
        out, err = capsys.readouterr()
    doc = json.loads(out) if out else None
    if doc is not None:
        doc["provenance"].pop("wall_time_ms")
    return code, err, doc


# W_2(9), theta(9) and berge3(9) recipes with patterns their hosts rule out
ORBIT_RECIPES = [("w2_9", ["C_6", "K_{2,2}"]), ("theta9", ["theta_{3,4}"]),
                 ("b3_9", ["bergeC_2", "bergeC_3", "bergeC_4"])]


@pytest.mark.parametrize("tag, forbid", ORBIT_RECIPES)
def test_exact_path_hands_verify_the_same_recipe(tmp_path, capsys, monkeypatch, tag, forbid):
    g, p = tmp_path / "g.json", tmp_path / "p.json"
    assert cli.main(["construct", *RECIPES[tag][0], "--out", str(g), "--partition", str(p)]) == 0
    assert cli._read_exact(g.read_bytes())["edges"].dtype == np.int64
    assert cli._read_exact(p.read_bytes()) is None  # partitions take json.loads
    seen = []
    recipe_host = constructions.recipe_host
    monkeypatch.setattr(constructions, "recipe_host",
                        lambda params, G: seen.append(params) or recipe_host(params, G))
    runs = [run_verify(capsys, g, p, exact, monkeypatch, *forbid) for exact in (True, False)]
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert seen[0] == seen[1] == json.loads(g.read_bytes())["provenance"]["params"]
    assert runs[0][2]["provenance"]["paths"] == {
        parse_pattern(spec).spec_string(): "orbit" for spec in forbid}


def k22_documents(tmp_path):
    G = LabeledHypergraph(2, ["a0", "a1", "b0", "b1"], [(0, 2), (0, 3), (1, 2), (1, 3)])
    P = SplitPartition([(0, 1), (2, 3)], 2)
    g, p = tmp_path / "k22.json", tmp_path / "k22_parts.json"
    cli._emit(cli._graph_payload(G), MANIFEST, str(g))
    cli._emit(P.to_json_dict(), MANIFEST, str(p))
    return g, p


def w13_documents(tmp_path):
    # W_1(3) as construct writes it, split into its points and its lines
    g, p = tmp_path / "w13.json", tmp_path / "w13_parts.json"
    assert cli.main(["construct", "wenger", "--M", "1", "--q", "3", "--out", str(g)]) == 0
    cli._emit(SplitPartition([range(9), range(9, 18)], 9).to_json_dict(), MANIFEST, str(p))
    return g, p


def named_mutations(raw: bytes):
    """The hostile spellings of the edge rows and of "m" in the canonical
    graph document `raw`, by name."""
    start = raw.index(b'"edges":') + len(b'"edges":')  # the rows start here
    end = raw.index(b',"m":', start)
    at, first = start + 2, raw.index(b",", start)  # the first row's first number
    m_at = end + len(b',"m":')
    m_end = raw.index(b",", m_at)

    def number(text: bytes) -> bytes:
        return raw[:at] + text + raw[first:]

    def rows(text: bytes) -> bytes:
        return raw[:start] + text + raw[end:]

    def m(text: bytes) -> bytes:
        return raw[:m_at] + text + raw[m_end:]

    yield "duplicate-key-first", raw[:1] + b'"edges":[[0,1]],' + raw[1:]
    yield "duplicate-key-last", raw[:-2] + b',"edges":[[0,1]]}\n'
    yield "19-digits", number(b"1" + b"0" * 18)
    yield "2**70", number(str(2 ** 70).encode())
    yield "2**63-1", number(str(2 ** 63 - 1).encode())
    yield "2**63", number(str(2 ** 63).encode())
    yield "minus-one", number(b"-1")
    yield "leading-zero", number(b"01")
    yield "float", number(b"1.0")
    yield "exponent", number(b"1e0")
    yield "non-ascii-digit", number("١".encode())
    yield "space-in-rows", raw[:start + 1] + b" " + raw[start + 1:]
    yield "space-after-colon", raw[:start] + b" " + raw[start:]
    yield "no-newline", raw[:-1]
    yield "crlf", raw[:-1] + b"\r\n"
    yield "bom", b"\xef\xbb\xbf" + raw
    yield "trailing-bytes", raw + b"x"
    yield "trailing-newline", raw + b"\n"
    yield "empty-row", rows(b"[[]]")
    yield "no-rows", rows(b"[]")
    yield "ragged-rows", rows(b"[[0,1],[2]]")
    yield "row-not-an-array", rows(b"[[1],2]")
    yield "three-deep", rows(b"[[[0,1]]]")
    yield "one-bracket-short", rows(b"[0,1]]")
    yield "one-bracket-over", rows(b"[[0,1]]]")
    yield "rows-wider-than-m", rows(b"[[0,1,2],[1,2,3]]")
    yield "m-true", m(b"true")
    yield "m-float", m(b"2.0")
    yield "m-zero", m(b"0")
    yield "m-minus-one", m(b"-1")
    yield "m-10**30", m(str(10 ** 30).encode())
    # no rows and a width numpy would take for an empty array
    yield "no-rows-text-m-10**15", raw[:start] + raw[end:m_at] + b"1" + b"0" * 15 + raw[m_end:]


def byte_mutations(raw: bytes, deletions: bool):
    """Each byte of `raw` replaced by one of a cycle of bytes that JSON
    and the edge-rows read treat differently, then, with `deletions`, each
    byte deleted."""
    cycle = b'019,[]-. "{}\n\xff'
    for i in range(len(raw)):
        new = cycle[i % len(cycle)]
        if new == raw[i]:
            new = cycle[(i + 1) % len(cycle)]
        yield f"replace-{i}", raw[:i] + bytes([new]) + raw[i + 1:]
    for i in range(len(raw) if deletions else 0):
        yield f"delete-{i}", raw[:i] + raw[i + 1:]


# the K_{2,2} document is short enough to take every deletion too
@pytest.mark.parametrize("documents, deletions", [(k22_documents, True), (w13_documents, False)],
                         ids=["k22", "w13"])
def test_mutated_documents_give_the_same_result_on_both_routes(tmp_path, capsys, monkeypatch,
                                                               documents, deletions):
    g, p = documents(tmp_path)
    canonical = g.read_bytes()
    read_exact = cli._read_exact
    assert read_exact(canonical) is not None
    named = dict(named_mutations(canonical))
    assert read_exact(named["2**63-1"]) is not None and read_exact(named["2**63"]) is None
    taken = []

    def spy(raw):
        doc = read_exact(raw)
        taken.append(doc is not None)
        return doc

    monkeypatch.setattr(cli, "_read_exact", spy)
    codes = set()
    for name, raw in [*named.items(), *byte_mutations(canonical, deletions)]:
        g.write_bytes(raw)
        exact = run_verify(capsys, g, p, True, monkeypatch, "C_4")
        assert exact == run_verify(capsys, g, p, False, monkeypatch, "C_4"), name
        codes.add(exact[0])
    # the mutations reach both routes, verdicts and refusals
    assert 2 in codes and codes - {2}
    assert True in taken and False in taken


@pytest.mark.parametrize("seg, outcome", [
    (b"[[" + str(2 ** 70).encode() + b"]]", "refused"), (b"[[1" + b"0" * 18 + b"]]", "refused"),
    (b"[[" + b"9" * 18 + b"]]", "read"), (b"[[]]", "read"), (b"[]", "read"),
    (b"[[0,1],[],[2]]", "read"), (b"[[1],2]", "refused"), (b"[1]]", "declined"),
    (b"[[1]]]", "declined"), (b"[[0,01]]", "declined"), (b"]", "declined"),
])
def test_rows_reader_refuses_reads_or_is_declined(tmp_path, capsys, monkeypatch, seg, outcome):
    # `seg` as the edge rows of the K_{2,2} document.  The outcome is what a
    # rows-only reader gives: "read" and "refused" rows are JSON, which
    # json.loads reads; "declined" rows are not, and `_read_exact` declines
    # them too.  Whatever `_read_exact` takes is json.loads's value, and
    # both routes give verify the same exit code, stderr and payload.
    g, p = k22_documents(tmp_path)
    raw = g.read_bytes()
    start = raw.index(b'"edges":') + len(b'"edges":')
    raw = raw[:start] + seg + raw[raw.index(b',"m":', start):]
    doc = cli._read_exact(raw)
    if outcome == "declined":
        with pytest.raises(ValueError):
            json.loads(raw)
        assert doc is None
    elif doc is not None:
        assert dict(doc, edges=doc["edges"].tolist()) == json.loads(raw)
    else:
        assert json.loads(raw)["edges"] == json.loads(seg)
    g.write_bytes(raw)
    exact = run_verify(capsys, g, p, True, monkeypatch, "C_4")
    assert exact == run_verify(capsys, g, p, False, monkeypatch, "C_4")


def graph_text(m: int, edges) -> bytes:
    G = LabeledHypergraph(m, [f"v{i}" for i in range(max(map(max, edges)) + 1)], edges)
    return json_writer(G.to_json_dict(), MANIFEST).encode()


def test_every_document_the_exact_path_takes_is_what_json_loads_reads():
    # random edits of the rows and "m" of small width-2 and width-3 graph
    # documents: whatever `_read_exact` takes, json.loads reads alike
    rng = random.Random(0)
    docs = [graph_text(2, [(0, 2), (0, 3), (1, 2), (1, 3)]),
            graph_text(3, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])]
    alphabet = b'0123456789,[]-. "{}tme\n'
    taken = set()
    for _ in range(5000):
        raw = bytearray(rng.choice(docs))
        head = raw.index(b'"provenance"')
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(head)
            edit = rng.randrange(3)
            if edit == 0:
                raw[i] = rng.choice(alphabet)
            elif edit == 1:
                raw.insert(i, rng.choice(alphabet))
            else:
                del raw[i]
        doc = cli._read_exact(bytes(raw))
        if doc is not None:
            taken.add(bytes(raw))
            assert dict(doc, edges=doc["edges"].tolist()) == json.loads(raw)
    assert len(taken - set(docs)) > 100  # edited documents were taken, not just the two
