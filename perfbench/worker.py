"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The pass pays the
interpreter start, the imports and the workload's set-up (``setup_s``),
then runs the workload once, timed by a ``workloads.Clock`` (``wall_s``
as measured, ``wall_ref_s`` at the reference speed), reads its peak
resident memory, and only then checks the outputs.  With ``--trace 1`` the pass runs under
the span recorder and also reports per-layer metrics and writes its spans.
The result goes to ``--out`` as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--nproc", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    ap.add_argument("--full-check", action="store_true", help="also run the slow checks")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import splitforge

    if not Path(splitforge.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"splitforge was imported from {splitforge.__file__}, not from src/")
    modules = {name: importlib.import_module(f"splitforge.{name}") for name in tracer.LAYERS}
    ctx = workloads.Context(args.seed, modules, Path(args.tmp), args.nproc)
    workload = workloads.make(args.workload, ctx)
    state = workload.setup()
    setup_s = time.monotonic() - args.spawned

    rec = tracer.Tracer() if args.trace else None
    if rec is not None:
        rec.install(splitforge, modules)
    c0 = time.process_time()
    clock = workloads.Clock(workload.rescale)
    try:
        raw = workload.run(state, clock)
    finally:
        cpu_s = time.process_time() - c0
        if rec is not None:
            rec.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    recorded = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))
    check = workloads.Pass(args.seed, recorded.get(args.workload, {}), args.full_check)
    t1 = time.perf_counter()
    workload.check(check, state, raw)
    check_s = time.perf_counter() - t1

    result = {
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": clock.raw_s,
        "wall_ref_s": clock.ref_s,
        "probe_s": statistics.median(clock.probes) if clock.probes else None,
        "cpu_s": cpu_s,
        "check_s": check_s,
        "peak_rss_mb": peak_rss_mb,
        "family_s": workload.family_seconds(raw),
        "ops": check.ops,
        "fingerprint": check.fingerprint,
        "bytes_out": check.bytes_out,
    }
    if rec is not None:
        result["layers"] = rec.metrics()
        result["layers"]["cli.bytes_out"] = check.bytes_out
        if args.spans:
            rec.write(args.spans)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
