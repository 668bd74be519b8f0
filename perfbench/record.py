"""Record the reference output summaries that every benchmark op is checked against.

    python3 -m perfbench.record        # from the repository root

Runs one op of every workload for every input variant, at the same thread
caps as the benchmark, and writes perfbench/reference.json. The reference
belongs to the commit it was recorded at (stored in the file); re-record
only when a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perfbench.run import THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    cap = str(len(os.sched_getaffinity(0)))
    os.environ.update({var: cap for var in THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from perfbench import checking, workloads

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    table = {}
    for name, wl in workloads.WORKLOADS.items():
        table[name] = {}
        for variant in range(workloads.VARIANTS):
            start = time.perf_counter()
            with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                workdir = Path(tmp)
                outputs = wl.op(wl.setup(variant, workdir))
                for f in wl.files:
                    outputs[f] = (workdir / f).read_bytes()
            table[name][str(variant)] = {k: checking.summarize(v) for k, v in outputs.items()}
            print(f"{name} variant {variant}: {time.perf_counter() - start:.2f} s", flush=True)
    reference = {
        "commit": commit,
        "numpy": np.__version__,
        "threads": int(cap),
        "tolerance": checking.TOLERANCE,
        "probes": checking.PROBES,
        "workloads": table,
    }
    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(reference, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
