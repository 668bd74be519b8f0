"""One fresh workload process: set up, warm up, then run ops back to back.

Started by run.py as `python3 -m perfbench.worker ...` from the checkout
root, with the thread-cap variables already in its environment, so BLAS
and OpenMP read them when numpy loads. It writes one JSON result file.

Modes:
  timed   untraced ops until the budget has elapsed; the op in flight
          completes, so a run holds at least one op.
  traced  pairs of one untraced and one traced op, alternating which runs
          first, until the budget has elapsed (at least one pair).

Before each timed op, the timed mode runs the machine-speed probe
(calibration.py) outside the op's timed interval.

Every op's outputs are checked against reference.json and their digest
against the warm-up op's; a failed check or an exception counts the op as
failed and the loop goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import specfuse
from perfbench import calibration, checking, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
MAX_PROBLEMS = 5
# Before each timed op, the machine-speed probe runs for this share of the
# previous op's time (at least one kernel, about 10 ms).
PROBE_SHARE = 0.02


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


class Runner:
    """Runs and checks ops of one workload in this process."""

    def __init__(self, wl: workloads.Workload, seed: int, workdir: Path):
        self.wl = wl
        self.workdir = workdir
        variant = workloads.variant_of(seed)
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.reference = reference["workloads"][wl.name][str(variant)]
        self.inputs = wl.setup(variant, workdir)
        self.base_digest = None
        self.problems: list[str] = []

    def run(self, recorder=contextlib.nullcontext()) -> tuple[float, str | None]:
        """One op, inside `recorder`: (seconds, digest or None if it failed)."""
        start = time.perf_counter()
        try:
            with recorder:
                outputs = self.wl.op(self.inputs)
        except Exception as exc:
            elapsed = time.perf_counter() - start
            self._problem(f"{type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = time.perf_counter() - start
        for name in self.wl.files:
            outputs[name] = (self.workdir / name).read_bytes()
        digest = checking.digest(outputs)
        problems = checking.check_outputs(outputs, self.reference)
        if self.base_digest is None:
            self.base_digest = digest
        elif digest != self.base_digest:
            problems.append("output bytes differ from the first op of this process")
        for p in problems:
            self._problem(p)
        return elapsed, None if problems else digest

    def _problem(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of ops")
    parser.add_argument("--spawn-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--result", required=True, help="path of the JSON result file")
    args = parser.parse_args(argv)

    if Path(specfuse.__file__).resolve().parent != ROOT / "src" / "specfuse":
        print(f"error: specfuse imported from {specfuse.__file__}, not this checkout",
              file=sys.stderr)
        return 1
    wl = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_out" / f"work-{args.workload}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(wl, args.seed, workdir)
        runner.run()  # warm-up: fills caches and lazy set-up; not timed
        first = time.monotonic()
        result = {"setup_s": first - args.spawn_at, "tokens_per_op": wl.tokens_per_op,
                  "variant": workloads.variant_of(args.seed)}
        if args.mode == "timed":
            result.update(_timed(runner, first + args.budget))
        else:
            result.update(_traced(runner, first + args.budget, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["problems"] = runner.problems
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = environment()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _timed(runner: Runner, deadline: float) -> dict:
    probe = calibration.Probe()
    times, digests, probes = [], [], []
    elapsed = 0.0
    while True:
        probes.append(probe.measure(PROBE_SHARE * elapsed))
        elapsed, digest = runner.run()
        times.append(elapsed)
        digests.append(digest)
        if time.monotonic() >= deadline:
            break
    return {"op_s": times, "failed": digests.count(None),
            "digest": runner.base_digest, "probe_s": probes}


def _traced(runner: Runner, deadline: float, args) -> dict:
    tracer = tracing.Tracer()
    times = {False: [], True: []}
    digests = {False: [], True: []}
    op_id = 0
    while True:
        for with_trace in ((False, True) if op_id % 4 == 0 else (True, False)):
            if with_trace:
                with tracing.traced(tracer):
                    elapsed, digest = runner.run(tracer.record_op(op_id))
            else:
                elapsed, digest = runner.run()
            times[with_trace].append(elapsed)
            digests[with_trace].append(digest)
            op_id += 1
        if time.monotonic() >= deadline:
            break
    all_digests = digests[False] + digests[True]
    counts = tracing.op_counts(tracer.spans)
    out = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(tracing.spans_json(tracer.spans)), encoding="utf-8")
    return {
        "op_s": times[False],
        "traced_op_s": times[True],
        "failed": all_digests.count(None),
        "faithful": len(set(all_digests)) == 1 and None not in all_digests,
        "counts_repeat": len({json.dumps(c) for c in counts.values()}) == 1,
        "self_time_residual_s": tracing.self_time_residual(tracer.spans),
        "layers": tracing.layer_metrics(tracer.spans, workloads.T_ALPHA),
        "digest": runner.base_digest,
        "spans_file": str(out.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main())
