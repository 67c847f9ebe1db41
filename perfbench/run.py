"""splitforge benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload build-large --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run starts one worker interpreter per pass, one at a time
(closed loop, one caller), until ``--seconds`` have passed, and reports
medians over the passes.  ``--trace 0`` passes run untraced and give the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
gives the per-layer metrics, the per-family certify times and the tracing
overhead, and checks that tracing changed no output.

Standard output: one line with the environment and every pass's samples,
then, as the last line, {"correct", "attempted", "failed", "metrics"}.  The
same record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = {0: 3, 1: 2}
PASS_LIMIT_S = 150.0  # no pass starts later, so a run ends well within 180 s
CERTIFY_FAMILIES = ("wenger", "norm_quotient", "theta", "berge3")


def _environment(nproc: int, blas_threads: str) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:  # no git: the checkout is not a repository either
        pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(blas_threads),
        "git_commit": commit,
        # workers always run with SPLITFORGE_THREADS removed; this is the caller's value
        "splitforge_threads_env": os.environ.get("SPLITFORGE_THREADS"),
        "machine": platform.machine(),
    }


def _run_pass(args, index, traced, nproc, env, tmp, spans) -> dict | None:
    work = tmp / f"pass{index}"
    work.mkdir()
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--nproc", str(nproc),
           "--tmp", str(work), "--out", str(out)]
    if traced:
        cmd += ["--spans", str(spans)]
    if index == 0:
        cmd.append("--full-check")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, 170.0 - (time.monotonic() - args.started)))
    except subprocess.TimeoutExpired:
        print(f"pass {index} timed out", file=sys.stderr)
        return None
    if proc.stdout:
        sys.stderr.write(proc.stdout)
    result = json.loads(out.read_text(encoding="utf-8")) if proc.returncode == 0 and out.exists() else None
    if result is None:
        print(f"pass {index} exited {proc.returncode}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.started = time.monotonic()

    if not (ROOT / "src" / "splitforge" / "__init__.py").is_file():
        print(f"no splitforge sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    blas_threads = str(1 if args.workload in workloads.ONE_BLAS_THREAD else nproc)
    env = dict(os.environ)
    env.pop("SPLITFORGE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ[var] = blas_threads
    env["PYTHONHASHSEED"] = "0"
    environment = _environment(nproc, blas_threads)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    results, crashed = [], 0
    try:
        index, durations = 0, []
        while True:
            elapsed = time.monotonic() - args.started
            if index >= MIN_PASSES[args.trace]:
                # start a pass only if it should end within half a pass of the limit
                if elapsed + _median(durations) / 2 > args.seconds:
                    break
            if elapsed > PASS_LIMIT_S:
                break
            traced = bool(args.trace) and index % 2 == 1
            t0 = time.monotonic()
            result = _run_pass(args, index, traced, nproc, env, tmp, spans)
            durations.append(time.monotonic() - t0)
            index += 1
            if result is None:
                crashed += 1
            else:
                results.append(result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    # an operation fails if it failed a check, or if its outputs differ from
    # the first pass's: same seed, traced or not, must give the same outputs
    attempted, failed = crashed, crashed
    first = results[0]["fingerprint"] if results else {}
    for r in results:
        bad = {op for op, msgs in r["ops"].items() if msgs}
        for key in first.keys() | r["fingerprint"].keys():
            if first.get(key) != r["fingerprint"].get(key):
                bad.add(key.split(":", 1)[0])
                print(f"output {key} differs between passes", file=sys.stderr)
        attempted += len(r["ops"])
        failed += len(bad)
        for op in sorted(bad):
            for msg in r["ops"].get(op, []):
                print(f"{op}: {msg}", file=sys.stderr)

    plain = [r for r in results if r["trace"] == 0]
    traced = [r for r in results if r["trace"] == 1]
    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    if args.trace:
        metrics = {key: {"value": _median([r["layers"][key] for r in traced]), "unit": unit}
                   for key, unit in tracer.METRICS.items()}
        for fam in CERTIFY_FAMILIES:
            value = _median([r["family_s"][fam] for r in plain if fam in r["family_s"]])
            metrics[f"certify_s.{fam}"] = {"value": value, "unit": "s"}
        overhead = _median([r["wall_ref_s"] for r in traced]) - _median([r["wall_ref_s"] for r in plain])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["pass.wall_s"] = {"value": _median([r["wall_s"] for r in plain]), "unit": "s"}
    else:
        metrics = {
            "wall_ref_s": {"value": _median([r["wall_ref_s"] for r in plain]), "unit": "s"},
            "setup_s": {"value": _median([r["setup_s"] for r in plain]), "unit": "s"},
            "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in plain]), "unit": "MB"},
        }
    summary = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    sample_keys = ("trace", "setup_s", "wall_s", "wall_ref_s", "probe_s", "cpu_s", "check_s",
                   "peak_rss_mb", "family_s")
    samples = [{key: r[key] for key in sample_keys} for r in results]
    record = {"environment": environment,
              "run": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "passes": len(results), "crashed": crashed,
                      "samples": samples}}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": summary}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
