#!/usr/bin/env python3
"""Benchmark of the specfuse toolkit; see perfbench/README.md.

    python3 perfbench/run.py --workload long-fuse --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each run starts fresh worker processes
(perfbench/worker.py) with the BLAS and OpenMP pools capped at the number
of usable cores, prints a readable report, writes the full result to
.perfbench_out/, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

--trace 0: SETUPS worker processes one after another, each timing ops for
  an equal share of --seconds. Op times are pooled; setup_s and
  peak_rss_mb are medians over the processes.
--trace 1: one worker at the cap alternating untraced and traced ops for
  --seconds, then one at a single thread for a quarter of --seconds,
  which gives run.parallel_speedup.

This script imports neither numpy nor specfuse; only the workers do.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("long-fuse", "desk-pipeline", "signal-diag")
SETUPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170.0
# Time of the machine-speed probe's kernel (calibration.py) on the 2-core
# Xeon VM that measured baseline.json, at 2 BLAS threads, when the machine
# was quiet. End-to-end times are scaled by PROBE_REFERENCE_S / the run's
# median probe time.
PROBE_REFERENCE_S = 0.0070
# Self times of one traced op must add up to its duration to this precision.
RESIDUAL_LIMIT_S = 1e-6


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(args, mode: str, budget: float, threads: int, deadline: float, tag: str) -> dict:
    """Run one worker process to completion and return its result."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"worker-{os.getpid()}-{tag}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SPFU_THREADS", None)
    env.update({var: str(threads) for var in THREAD_VARS})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--budget", repr(budget),
           "--result", str(result_path), "--spawn-at"]
    try:
        proc = subprocess.run(cmd + [repr(time.monotonic())], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {remaining:.0f} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{mode} worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result


def tail(op_s: list[float]):
    """Highest percentile with at least ten samples beyond it, as
    (seconds, percentile, samples beyond); None below 20 ops, where that
    percentile would not lie above the median."""
    n = len(op_s)
    if n < 20:
        return None
    return sorted(op_s)[n - 11], 100.0 * (n - 10) / n, 10


def source_identity() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "specfuse").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest()}


def run_untraced(args, cores: int, deadline: float) -> tuple[dict, dict]:
    workers = [spawn(args, "timed", args.seconds / SETUPS, cores, deadline, f"t{i}")
               for i in range(SETUPS)]
    op_s = [t for w in workers for t in w["op_s"]]
    failed = sum(w["failed"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    if len({w["digest"] for w in workers}) != 1:
        problems.append("output bytes differ between worker processes")
    probe = statistics.median(p for w in workers for p in w["probe_s"])
    scale = PROBE_REFERENCE_S / probe
    raw = {
        "op_p50_s": statistics.median(op_s),
        "tokens_per_s": workers[0]["tokens_per_op"] * len(op_s) / sum(op_s),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
    }
    metrics = {
        "op_p50_s": raw["op_p50_s"] * scale,
        "tokens_per_s": raw["tokens_per_s"] / scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": statistics.median(w["peak_rss_kb"] for w in workers) / 1024.0,
        "ok_ratio": 1.0 - failed / len(op_s),
    }
    t = tail(op_s)
    detail = {
        "raw": raw,
        "probe_s": probe,
        "scale": scale,
        "ops": len(op_s),
        "failed": failed,
        "fail_ratio": failed / len(op_s),
        "op_tail_s": None if t is None else {"value": t[0] * scale, "raw": t[0],
                                             "percentile": t[1], "beyond": t[2]},
        "op_s": op_s,
        "setup_s_each": [w["setup_s"] for w in workers],
        "problems": problems,
        "worker_env": workers[0]["env"],
        "variant": workers[0]["variant"],
    }
    return metrics, detail


def run_traced(args, cores: int, deadline: float) -> tuple[dict, dict]:
    main = spawn(args, "traced", args.seconds, cores, deadline, "traced")
    single = spawn(args, "timed", args.seconds / 4, 1, deadline, "single")
    plain, traced = main["op_s"], main["traced_op_s"]
    metrics = dict(main["layers"])
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["run.parallel_speedup"] = statistics.median(single["op_s"]) / statistics.median(plain)
    ops = len(plain) + len(traced) + len(single["op_s"])
    failed = main["failed"] + single["failed"]
    problems = main["problems"] + single["problems"]
    if not main["faithful"]:
        problems.append("traced outputs differ from untraced outputs")
    if not main["counts_repeat"]:
        problems.append("work counts differ between traced ops")
    if main["self_time_residual_s"] > RESIDUAL_LIMIT_S:
        problems.append(f"self times miss the op time by {main['self_time_residual_s']:.3g} s")
    detail = {
        "ops": ops,
        "failed": failed,
        "fail_ratio": failed / ops,
        "untraced_ops": len(plain),
        "traced_ops": len(traced),
        "single_thread_ops": len(single["op_s"]),
        "self_time_residual_s": main["self_time_residual_s"],
        "spans_file": main["spans_file"],
        "problems": problems,
        "worker_env": main["env"],
        "variant": main["variant"],
    }
    return metrics, detail


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, by its naming convention."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(".macs"):
        return "MAC"
    if "bytes" in name:
        return "bytes"
    if name.startswith(("trace.overhead", "run.")):
        return "ratio"
    return "count"


def _fmt(value) -> str:
    if isinstance(value, float) and value.is_integer() and abs(value) >= 1:
        return str(int(value))
    return f"{value:.6g}"


def report(args, env: dict, metrics: dict, detail: dict, spec: dict) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} variant={detail['variant']} "
          f"trace={args.trace} seconds={args.seconds}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace == 0:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        ops, raw = detail["ops"], detail["raw"]
        print(f"  times scaled by {detail['scale']:.4f}: probe reference "
              f"{PROBE_REFERENCE_S * 1e3:.3f} ms / median this run {detail['probe_s'] * 1e3:.3f} ms")
        print(f"  op_p50_s      {metrics['op_p50_s']:.6g} s  (raw {raw['op_p50_s']:.6g} s; "
              f"median of {ops} ops)")
        t = detail["op_tail_s"]
        if t is None:
            print(f"  op_tail_s     omitted: {ops} ops, a tail needs at least 20")
        else:
            print(f"  op_tail_s     {t['value']:.6g} s  (raw {t['raw']:.6g} s; "
                  f"p{t['percentile']:.1f} of {ops} ops, {t['beyond']} beyond)")
        for name in ("tokens_per_s", "setup_s"):
            print(f"  {name:<13} {metrics[name]:.6g} {units[name]}  (raw {raw[name]:.6g})")
        for name in ("peak_rss_mb", "ok_ratio"):
            print(f"  {name:<13} {metrics[name]:.6g} {units[name]}")
        print(f"  fail_ratio    {detail['fail_ratio']:.6g}  ({detail['failed']}/{ops} ops)")
    else:
        print(f"  ops: {detail['untraced_ops']} untraced and {detail['traced_ops']} traced, "
              f"{detail['single_thread_ops']} at one thread; per-layer values are per op")
        for name, value in metrics.items():
            print(f"  {name:<40} {_fmt(value)} {unit_of(name)}")
    for p in detail["problems"]:
        print(f"  problem: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="specfuse benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running worker before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "specfuse" / "__init__.py").is_file():
        print(f"error: no specfuse sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cores = len(os.sched_getaffinity(0))
    try:
        if args.trace == 0:
            metrics, detail = run_untraced(args, cores, deadline)
        else:
            metrics, detail = run_traced(args, cores, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = {"nproc": cores, "thread_caps": f"{cores} ({','.join(THREAD_VARS)})",
           **detail.pop("worker_env"), "seed": args.seed, **source_identity()}
    report(args, env, metrics, detail, spec)
    listed = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]
    missing = [name for name in listed if name not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({"args": vars(args), "env": env, "metrics": metrics,
                                       "detail": detail}, indent=1), encoding="utf-8")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    line = {
        "correct": detail["failed"] == 0 and not detail["problems"],
        "attempted": detail["ops"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in listed},
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
