"""Re-record perfbench/baseline.json at the default seed.

Usage, from the repository root: python3 perfbench/record_baseline.py

Runs every workload once untraced and once traced, for BENCHMARK.json's
run_seconds each, and writes the end-to-end medians, the per-layer table
(layers the workload calls, the trace totals and the untraced wall times)
and the artifact digest per workload. run.py
checks artifacts against that digest whenever it runs at the recorded seed,
so re-record only when a change alters artifact bytes on purpose.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"
SEED = 1


def _run(workload: str, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload}: checks failed\n{proc.stdout}")
    digest = next(line.split()[1] for line in lines if line.strip().startswith("artifact_sha256"))
    return {k: v["value"] for k, v in result["metrics"].items()}, digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    BASELINE.unlink(missing_ok=True)  # so run.py does not check against the old digests
    workloads = {}
    for w in spec["workloads"]:
        e2e, digest = _run(w["name"], spec["run_seconds"], 0)
        layers, traced_digest = _run(w["name"], spec["run_seconds"], 1)
        if traced_digest != digest:
            raise SystemExit(f"{w['name']}: traced and untraced artifacts differ")
        called = {k.rsplit(".", 1)[0] for k, v in layers.items() if k.endswith(".calls") and v}
        workloads[w["name"]] = {
            "artifact_sha256": digest,
            "end_to_end": e2e,
            "per_layer": {k: v for k, v in layers.items()
                          if k.rsplit(".", 1)[0] in called or k.startswith(("trace.", "wall."))},
        }
        print(w["name"], e2e, flush=True)
    BASELINE.write_text(json.dumps({
        "seed": SEED,
        "run_seconds": spec["run_seconds"],
        "machine": {"python": platform.python_version(), "system": platform.system(),
                    "machine": platform.machine(), "cpus": os.cpu_count()},
        "workloads": workloads,
    }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
