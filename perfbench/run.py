"""Benchmark runner for heckelink.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of the workload runs in a fresh
interpreter (worker.py), one at a time, so module caches start cold as they
do for a CLI user; passes repeat until about S seconds are measured and at
least 100 operation times are pooled.  With ``--trace 0`` the last line of
stdout carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of traced passes run alternately with untraced ones.  The line
before it is the full record: environment, pass times, failures and the
digest of the rendered outputs.  Exit code 2, with no result printed, when
the checkout or a worker is broken.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

MIN_OP_SAMPLES = 100  # p90 then has at least 10 samples beyond it
MIN_SETUPS = 9
MAX_MEASURE_S = 120  # stop starting passes; a run must end within 180 s
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, ops: list, trace: bool, setup_only: bool = False) -> dict:
    request = {"workload": workload, "ops": ops, "trace": trace, "setup_only": setup_only}
    # A fixed hash seed keeps set and dict orders, and so the work done,
    # identical from pass to pass.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"worker exited with {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout)


def digest(outputs: list) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def environment() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src_hash.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    src_hash.update(fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
    }


def measure(workload: str, ops: list, seconds: float, trace: bool) -> tuple[list, list]:
    """Untraced passes (alternating with traced ones when tracing) until the
    next round would overrun ``seconds`` and enough operations are timed."""
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        plain.append(run_worker(workload, ops, False))
        if trace:
            traced.append(run_worker(workload, ops, True))
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(plain)
        if elapsed + per_round > MAX_MEASURE_S:
            break
        enough = trace or len(plain) * len(ops) >= MIN_OP_SAMPLES
        if enough and elapsed + per_round > seconds:
            break
    return plain, traced


def failures(workload: str, ops: list, passes: list) -> tuple[int, int, list]:
    """Check the first pass against the oracles; every later pass must render
    byte-identical outputs, or all of its operations count as failed."""
    sys.path.insert(0, SRC)
    import heckelink as hl

    check = WORKLOADS[workload][3]
    flags = check(hl, ops, passes[0]["outputs"])
    digests = [digest(p["outputs"]) for p in passes]
    failed = sum(
        sum(flags) if d == digests[0] else len(ops) for d in digests
    )
    return failed, len(ops) * len(passes), digests


def _p50_p90(values: list) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def raw_percentiles(plain: list) -> tuple[float, float]:
    return _p50_p90([t * 1000 for p in plain for t in p["raw_op_s"]])


def end_to_end(plain: list, setups: list) -> dict:
    p50, p90 = _p50_p90([t * 1000 for p in plain for t in p["op_s"]])
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain: list, traced: list, failed_frac: float) -> dict:
    """Layer metrics of the traced pass with the median wall time, all from
    that one pass.  Span times are raw seconds, so its layer self times and
    remainder add up to its raw wall time; the overhead ratio compares
    nominal-speed wall times."""
    rep = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
    out = dict(rep["layers"])
    out["bench.trace_overhead_ratio"] = rep["wall_s"] / statistics.median(
        p["wall_s"] for p in plain
    )
    out["bench.traced_wall_s"] = rep["raw_wall_s"]
    out["bench.layers_self_s"] = rep["covered_s"]
    out["bench.remainder_s"] = rep["raw_wall_s"] - rep["covered_s"]
    out["bench.failed_frac"] = failed_frac
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "heckelink", "__init__.py")):
        print(f"error: no heckelink package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    ops = WORKLOADS[args.workload][0](args.seed)
    try:
        plain, traced = measure(args.workload, ops, args.seconds, bool(args.trace))
        setups = list(plain)
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(run_worker(args.workload, ops, False, setup_only=True))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed, attempted, digests = failures(args.workload, ops, plain + traced)
    failed_frac = failed / attempted
    if args.trace:
        values, declared = per_layer(plain, traced, failed_frac), spec["per_layer"]
    else:
        values, declared = end_to_end(plain, setups), spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "ops_per_pass": len(ops),
        "passes": len(plain),
        "traced_passes": len(traced),
        "op_samples": len(ops) * len(plain),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed_frac,
        "digest": digests[0],
        "digests_identical": len(set(digests)) == 1,
        "wall_s_passes": [p["wall_s"] for p in plain],
        "raw_wall_s_passes": [p["raw_wall_s"] for p in plain],
        "traced_wall_s_passes": [p["wall_s"] for p in traced],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "raw_setup_s_samples": [s["raw_setup_s"] for s in setups],
        "raw_op_ms_p50_p90": raw_percentiles(plain),
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
