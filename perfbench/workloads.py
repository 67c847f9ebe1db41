"""The four workloads: inputs made from a seed, one timed pass, and the
correctness checks that run after the pass, outside the timed region.

Every workload is a closed loop with one caller: each call starts when the
previous one has returned.  Calls go through module attributes
(``cli.main``, ``oracle.exact_f``) so that a traced pass sees them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import statistics
import time
from fractions import Fraction

DEFAULT_SEED = 0
NAMES = ("build-large", "certify-mid", "oracle-sweep", "spectral-mix")
# BLAS threads are pinned to nproc, except here: a second BLAS thread made
# the spectra's time follow the load on the other core of a small shared
# host.  certify-mid keeps nproc for the theta decider's matrix products.
ONE_BLAS_THREAD = ("spectral-mix",)


def sha256_canonical(payload) -> str:
    """Digest of a payload serialized the way the CLI hashes payloads."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Pass:
    """Checks of one pass: failures per operation, and the values that must
    repeat exactly in every pass with the same seed."""

    def __init__(self, seed: int, expected: dict, full: bool) -> None:
        self.seed = seed
        self.expected = expected
        # checks too slow to repeat every pass run on the first pass of a
        # run; later passes must then match its fingerprint exactly
        self.full = full
        self.ops: dict = {}
        self.fingerprint: dict = {}
        self.bytes_out = 0

    def fail(self, op: str, message: str) -> None:
        self.ops.setdefault(op, []).append(message)

    def check(self, op: str, ok: bool, message: str) -> None:
        self.ops.setdefault(op, [])
        if not ok:
            self.fail(op, message)

    def record(self, op: str, key: str, value, seeded: bool) -> None:
        """Keep ``value`` in the fingerprint and compare it with the value
        recorded at the seed commit.  A ``seeded`` value depends on the
        workload seed and is compared only for the default seed."""
        full = f"{op}:{key}"
        self.ops.setdefault(op, [])
        self.fingerprint[full] = value
        if seeded and self.seed != DEFAULT_SEED:
            return
        if full not in self.expected:
            self.fail(op, f"no recorded value for {full}")
        elif self.expected[full] != value:
            self.fail(op, f"{full} is {value!r}, recorded {self.expected[full]!r}")


# The probe: a fixed piece of interpreter work, a dict of strings built and
# read back and an integer loop over a small table, run with the garbage
# collector paused so that a collection of the program's heap never lands
# in it.
_PROBE_TABLE = [(i * 7919) % 1021 for i in range(1024)]
_PROBE_REPS = 40
# the probe's mean time at the speed the reference seconds are quoted in:
# that of the 2-core x86_64 VM (Python 3.11) the benchmark was written on
PROBE_REF_S = 0.0011


def _probe_once(table) -> float:
    t0 = time.perf_counter()
    d = {i: str(i) for i in range(4000)}
    acc = sum(len(v) for v in d.values())
    for _ in range(4):
        for x in table:
            acc = (acc * 31 + table[x]) & 1023
    return time.perf_counter() - t0


def probe() -> float:
    """The machine's speed right now: mean time of the fixed work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.fmean(_probe_once(_PROBE_TABLE) for _ in range(_PROBE_REPS))
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times a pass segment by segment, one segment per operation or group
    of operations.

    ``raw_s`` is the segments' wall time; ``ref_s`` is the time the pass
    would take at the reference speed.  On a shared host the speed of
    interpreted Python moves by a quarter for seconds to minutes at a
    time.  With ``rescale`` set, a probe runs before the first segment and
    after each one, and a segment's reference time is its wall time
    multiplied by PROBE_REF_S over the mean of the two probes around it.
    The program's own speed does not move the probe, so ``ref_s`` keeps a
    change in the program and drops most of the machine's.  Without
    ``rescale``, ``ref_s`` is ``raw_s``: the deciders' numpy and scipy
    kernels, on nproc BLAS threads, did not slow when the probe did, and
    rescaling them only added the probe's noise.  Probe time is in
    neither."""

    def __init__(self, rescale: bool) -> None:
        self.rescale = rescale
        self.raw_s = self.ref_s = 0.0
        self.probes: list = []
        self._speed = self._probe() if rescale else PROBE_REF_S
        self._t0 = time.perf_counter()

    def _probe(self) -> float:
        speed = probe()
        self.probes.append(speed)
        return speed

    def lap(self) -> float:
        """End the current segment and start the next; return the ended
        segment's time at the reference speed."""
        seconds = time.perf_counter() - self._t0
        ref = seconds
        if self.rescale:
            speed = self._probe()
            ref = seconds * PROBE_REF_S / ((self._speed + speed) / 2)
            self._speed = speed
        self.raw_s += seconds
        self.ref_s += ref
        self._t0 = time.perf_counter()
        return ref


def _attempt(fn, *args):
    """Run one operation; an exception is its result, not the pass's end."""
    try:
        return fn(*args), None
    except Exception as exc:  # every failure is counted by the checks
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------- CLI families


class _Family:
    """One split family driven through ``splitforge construct`` then
    ``splitforge verify``."""

    def __init__(self, name, construct_args, forbid, seeded, check_parts):
        self.name = name
        self.construct_args = construct_args
        self.forbid = forbid
        self.seeded = seeded
        self.check_parts = check_parts


def _wenger(q, forbid=()):
    def check(p, op, graph, part):
        p.check(op, len(part["parts"]) == q * q, f"{len(part['parts'])} parts, want q^2 = {q * q}")
        p.check(op, max(map(len, part["parts"])) == 2 * q, "largest part is not 2q")
    return _Family("wenger", ["wenger", "--M", "2", "--q", str(q)], forbid, False, check)


def _norm_quotient(q, h, a, seed, forbid=()):
    def check(p, op, graph, part):
        stats = part["patch_stats"]
        p.check(op, len(part["parts"]) == q * a, f"{len(part['parts'])} parts, want q*a = {q * a}")
        p.check(op, max(map(len, part["parts"])) <= a + h + stats["max_patch_per_part"],
                "a part exceeds a + h + max_patch_per_part")
        p.check(op, stats["fresh_vertices"] >= 0 and stats["patch_edges"] >= 0, "negative patch stats")
    args = ["norm-quotient", "--q", str(q), "--t", "2", "--d", "1", "--h", str(h), "--a", str(a),
            "--seed", str(7 + seed)]
    return _Family("norm_quotient", args, forbid, True, check)


def _theta(q, forbid=()):
    root = math.isqrt(q)
    def check(p, op, graph, part):
        want = q * q * root
        p.check(op, len(part["parts"]) == want, f"{len(part['parts'])} parts, want q^(5/2) = {want}")
        p.check(op, {len(x) for x in part["parts"]} == {2 * q * root}, "parts are not all of size 2q^(3/2)")
    return _Family("theta", ["theta", "--q", str(q)], forbid, False, check)


def _berge3(q, forbid=()):
    def check(p, op, graph, part):
        p.check(op, len(part["parts"]) == q, f"{len(part['parts'])} parts, want q = {q}")
        p.check(op, max(map(len, part["parts"])) == q - 1, "largest part is not q - 1")
        p.check(op, len(graph["edges"]) == math.comb(q, 3), "edge count is not C(q, 3)")
    return _Family("berge3", ["berge3", "--q", str(q)], forbid, False, check)


class CliWorkload:
    """Families built with ``construct --partition`` and certified with
    ``verify``; ``certify_s`` of a family runs from the start of its
    construct to its verify verdict, at the reference speed."""

    def __init__(self, ctx, families, threads, rescale):
        self.ctx = ctx
        self.families = families
        self.threads = str(threads)
        self.rescale = rescale

    def setup(self):
        return None

    def run(self, state, clock):
        cli = self.ctx.modules["cli"]
        tmp = self.ctx.tmp
        out = {}
        for fam in self.families:
            g, part, rep = (tmp / f"{fam.name}_{kind}.json" for kind in ("graph", "parts", "report"))
            rc, err = _attempt(cli.main, ["construct", *fam.construct_args, "--out", str(g),
                                          "--partition", str(part), "--threads", self.threads])
            rc2 = err2 = None
            if rc == 0:
                argv = ["verify", "--graph", str(g), "--partition", str(part), "--out", str(rep),
                        "--threads", self.threads]
                for pat in fam.forbid:
                    argv += ["--forbid", pat]
                rc2, err2 = _attempt(cli.main, argv)
            out[fam.name] = {"rc": rc, "err": err, "rc2": rc2, "err2": err2,
                             "seconds": clock.lap(), "paths": (g, part, rep)}
        return out

    def family_seconds(self, raw):
        return {name: r["seconds"] for name, r in raw.items()}

    def check(self, p: Pass, state, raw):
        for fam in self.families:
            r = raw[fam.name]
            op_c, op_v = f"construct {fam.name}", f"verify {fam.name}"
            p.check(op_c, r["rc"] == 0, f"construct exited {r['rc']} {r['err'] or ''}")
            if r["rc"] != 0:
                p.fail(op_v, "not run: construct failed")
                continue
            p.check(op_v, r["rc2"] == 0, f"verify exited {r['rc2']} {r['err2'] or ''}")
            docs = {}
            for op, path, key in zip((op_c, op_c, op_v), r["paths"], ("graph", "partition", "report")):
                if not path.exists():
                    p.fail(op, f"{key} document missing")
                    continue
                p.bytes_out += path.stat().st_size
                doc = json.loads(path.read_text(encoding="utf-8"))
                sha = doc.pop("provenance")["payload_sha256"]
                p.check(op, sha == sha256_canonical(doc), f"{key} payload_sha256 does not match its payload")
                p.record(op, f"{key}_sha256", sha, fam.seeded)
                docs[key] = doc
            if "graph" in docs and "partition" in docs:
                fam.check_parts(p, op_c, docs["graph"], docs["partition"])
            report = docs.get("report")
            if report is None:
                continue
            p.check(op_v, report["report"]["completeness_ok"], "split is not complete")
            p.check(op_v, report["report"]["independence_ok"], "split is not independent")
            got = [f["pattern"] for f in report["forbidden"]]
            want = [self.ctx.modules["forbidden"].parse_pattern(x).spec_string() for x in fam.forbid]
            p.check(op_v, got == want, f"verdicts for {got}, asked for {want}")
            for f in report["forbidden"]:
                p.check(op_v, f["witness"] is None, f"{f['pattern']} found, expected absent")
            p.check(op_v, report["ok"] is True, "verify payload is not ok")


def build_large(ctx):
    """Builders, validation, ``verify_rk`` and the JSON round trip; no
    decider runs.  Single-threaded."""
    families = [_wenger(16), _norm_quotient(49, 8, 6, ctx.seed), _theta(9)]
    return CliWorkload(ctx, families, threads=1, rescale=True)


def certify_mid(ctx):
    """Deciders dominate; builds use small fields.  ``--threads`` = nproc."""
    families = [
        _wenger(13, ["C_6"]),
        _norm_quotient(41, 8, 5, ctx.seed, ["K_{2,2}"]),
        _theta(9, ["theta_{3,4}"]),
        _berge3(49, ["bergeC_2", "bergeC_3", "bergeC_4"]),
    ]
    return CliWorkload(ctx, families, threads=ctx.nproc, rescale=False)


# ---------------------------------------------------------------- oracle sweep

# (label, r, m, k_max, patterns, known status, known value)
ORACLE_QUERIES = (
    ("cycles345_r6", 6, 2, 3, ("C_3", "C_4", "C_5"), "found", 2),
    ("bergeC2_r6", 6, 3, 2, ("bergeC_2",), "exhausted", None),
    ("bergeC3_r5", 5, 3, 3, ("bergeC_3",), "found", 3),
    ("C4_r4", 4, 2, 3, ("C_4",), "found", 2),
    ("C4_r5", 5, 2, 3, ("C_4",), "found", 2),
    ("C4_r6", 6, 2, 3, ("C_4",), "found", 2),
)

# 0.58 n^{3/2} bounds the C4-free edge maximum for every host n = r*k <= 18
C4_ENVELOPE = (Fraction(29, 50), Fraction(3, 2), 2)


class OracleSweep:
    """Exact thresholds on tiny instances; the seed sets the query order."""

    rescale = True

    def __init__(self, ctx):
        self.ctx = ctx

    def setup(self):
        forbidden = self.ctx.modules["forbidden"]
        queries = list(ORACLE_QUERIES)
        random.Random(self.ctx.seed).shuffle(queries)
        return [(q, tuple(forbidden.parse_pattern(x) for x in q[4])) for q in queries]

    def run(self, state, clock):
        oracle, bounds = self.ctx.modules["oracle"], self.ctx.modules["bounds"]
        out = {}
        for (label, r, m, k_max, _, _, _), patterns in state:
            res, err = _attempt(lambda: oracle.exact_f(oracle.OracleQuery(r, m, k_max, patterns)))
            lower = None
            if label.startswith("C4_"):
                lower, _ = _attempt(bounds.min_k_lower, r, 2, bounds.TuranEnvelope(*C4_ENVELOPE))
            out[label] = (res, err, lower)
            clock.lap()
        return out

    def family_seconds(self, raw):
        return {}

    def check(self, p: Pass, state, raw):
        mods = self.ctx.modules
        structures, forbidden, constructions = mods["structures"], mods["forbidden"], mods["constructions"]
        for (label, r, m, k_max, _, status, value), patterns in state:
            op = f"oracle {label}"
            res, err, lower = raw[label]
            if res is None:
                p.fail(op, f"raised {err}")
                continue
            p.check(op, (res.status, res.value) == (status, value),
                    f"got {res.status} {res.value}, known {status} {value}")
            p.record(op, "nodes_total", res.nodes_total, False)
            p.record(op, "per_k_nodes", {str(k): v for k, v in res.per_k_nodes.items()}, False)
            cert = None
            if res.status == "found":
                G, P = res.graph, res.partition
                rep = structures.verify_rk(G, P)
                p.check(op, rep.completeness_ok and rep.independence_ok, "certificate is not a complete split")
                p.check(op, (P.r, P.declared_k, G.m) == (r, res.value, m), "certificate has the wrong shape")
                for pat in patterns:
                    p.check(op, forbidden.check_pattern(G, pat) is None,
                            f"certificate contains {pat.spec_string()}")
                cert = sha256_canonical({"graph": G.to_json_dict(), "partition": P.to_json_dict()})
            p.record(op, "certificate_sha256", cert, False)
            if label.startswith("C4_"):
                p.check(op, lower is not None and res.value >= lower,
                        f"value {res.value} is below the counting bound {lower}")
                for comp in ((1, 1), (2,)):
                    G, _ = constructions.build_property_B(2, comp, r)
                    if forbidden.check_pattern(G, patterns[0]) is None:
                        p.check(op, res.value <= len(comp), "a C4-free property-B split beats the value")


# ---------------------------------------------------------------- spectral mix

SPECTRUM_HOSTS = ((2, 17), (4, 5), (1, 31))  # iterative above 5000 vertices, dense below
MIXING = (((1, 13), 100), ((1, 19), 4))  # (host, seeded pairs)
GREEDY = (((1, 31), 20), ((1, 13), 8))  # (host, parts), pattern K_{2,2}


class SpectralMix:
    """Spectra, bipartite mixing checks and greedy splits of Wenger hosts
    built in set-up; the seed draws U and W and the greedy seed."""

    rescale = True

    def __init__(self, ctx):
        self.ctx = ctx

    def setup(self):
        build = self.ctx.modules["constructions"].build_wenger
        keys = {h for h in SPECTRUM_HOSTS} | {h for h, _ in MIXING} | {h for h, _ in GREEDY}
        hosts = {key: build(*key) for key in sorted(keys)}
        rng = random.Random(self.ctx.seed)
        samples = []
        for key, count in MIXING:
            G = hosts[key]
            points = [v for v in range(G.n) if G.vertices[v].startswith("P:")]
            lines = [v for v in range(G.n) if G.vertices[v].startswith("L:")]
            for _ in range(count):
                U = rng.sample(points, rng.randint(1, len(points)))
                W = rng.sample(lines, rng.randint(1, len(lines)))
                samples.append((key, U, W))
        return {"hosts": hosts, "samples": samples, "greedy_seed": 42 + self.ctx.seed}

    def run(self, state, clock):
        spectral = self.ctx.modules["spectral"]
        hosts = state["hosts"]
        out = {"spectrum": {}, "mixing": [], "greedy": {}}
        for key in SPECTRUM_HOSTS:
            out["spectrum"][key] = _attempt(spectral.spectrum, hosts[key])
            clock.lap()
        for key, U, W in state["samples"]:
            out["mixing"].append(_attempt(lambda: spectral.mixing_check(hosts[key], U, W, mode="bipartite")))
        clock.lap()
        for key, m in GREEDY:
            out["greedy"][key] = _attempt(lambda: spectral.greedy_split(
                hosts[key], m, "K_{2,2}", seed=state["greedy_seed"]))
            clock.lap()
        return out

    def family_seconds(self, raw):
        return {}

    def check(self, p: Pass, state, raw):
        structures, forbidden = self.ctx.modules["structures"], self.ctx.modules["forbidden"]
        for (M, q), (s, err) in raw["spectrum"].items():
            op = f"spectrum W_{M}({q})"
            if s is None:
                p.fail(op, f"raised {err}")
                continue
            closed = math.sqrt(M * q)
            p.check(op, abs(s.rho2 - closed) <= 1e-8, f"rho2 {s.rho2!r} is not sqrt({M}*{q})")
            p.check(op, abs(s.rho1 - q) <= 1e-8 and s.d == q and s.bipartite, "rho1, degree or bipartiteness is off")
            p.record(op, "shape", [s.n, s.d, s.bipartite, s.eigenvalues is None], False)
        lhs = []
        for i, (res, err) in enumerate(raw["mixing"]):
            op = f"mixing {i}"
            p.check(op, res is not None and res["ok"], f"mixing check failed: {res or err}")
            lhs.append(round(res["lhs"], 6) if res else None)
        p.record("mixing", "lhs_sha256", sha256_canonical(lhs), True)
        for key, m in GREEDY:
            res, err = raw["greedy"][key]
            op = f"greedy W_{key[0]}({key[1]}) m={m}"
            if res is None:
                p.fail(op, f"raised {err}")
                continue
            G2, P, _ = res
            rep = structures.verify_rk(G2, P)
            p.check(op, rep.completeness_ok and rep.independence_ok, "greedy split does not verify")
            p.check(op, P.r == m, f"{P.r} parts, want {m}")
            if p.full:
                p.check(op, forbidden.check_pattern(G2, "K_{2,2}") is None, "greedy output contains K_{2,2}")
            p.record(op, "split_sha256",
                     sha256_canonical({"graph": G2.to_json_dict(), "partition": P.to_json_dict()}), True)


class Context:
    def __init__(self, seed, modules, tmp, nproc):
        self.seed = seed
        self.modules = modules
        self.tmp = tmp
        self.nproc = nproc


def make(name: str, ctx: Context):
    return {
        "build-large": build_large,
        "certify-mid": certify_mid,
        "oracle-sweep": OracleSweep,
        "spectral-mix": SpectralMix,
    }[name](ctx)
