"""logcompass batch benchmark: one workload, end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload records-b-filtered --seed 1 --seconds 30 --trace 0

For the chosen workload the benchmark
  1. generates the input corpus from --seed, at least SETUP_MIN_REPEATS
     times and for at least SETUP_MIN_S seconds (stages-replay also runs
     `logcompass run` once per repeat to produce the sessions.csv it
     replays);
  2. runs the job in a closed loop, one fresh child process at a time,
     for --seconds seconds; the first run is a warm-up and is not timed;
  3. checks every run's artifacts (see checks.py) and that all runs wrote
     the same bytes;
  4. with --trace 1, makes one more run with a span around every stage
     call and derives the per-layer table from the spans.

A fixed reference computation (reference.py) is timed in this process
before and after every set-up and every job, and each one's wall time is
divided by the mean of the two, so that the host's slow spells cancel out.
run_ref and rows_per_ref are medians of those ratios over the timed runs;
setup_s is the median set-up ratio times reference.NOMINAL_S, that is the
set-up time in seconds on a machine where the reference takes NOMINAL_S;
peak_rss_mb is the median over the timed runs. The wall times themselves
are reported as wall.run_s, wall.rows_per_s, wall.setup_s and
wall.reference_s.

It prints a readable summary and, as its last line, one JSON object with
the end-to-end metrics (--trace 0) or the per-layer and wall-time metrics
(--trace 1).
Work files go to .perfbench_work/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = BENCH / "baseline.json"
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 4.0
MIN_TIMED_RUNS = 3
CHILD_TIMEOUT_S = 120
# Per-layer entries of BENCHMARK.json for the untraced runs' own wall times.
WALL_SPECS = [
    {"name": "wall.run_s", "unit": "s", "better": "lower"},
    {"name": "wall.rows_per_s", "unit": "rows/s", "better": "higher"},
    {"name": "wall.setup_s", "unit": "s", "better": "lower"},
    {"name": "wall.reference_s", "unit": "s", "better": "lower"},
]


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_job(spec: dict, spec_path: Path) -> tuple[dict | None, str | None]:
    """Run job.py on spec in a child process; returns (result, error)."""
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py"), str(spec_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"{spec['mode']} job timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"{spec['mode']} job exited {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _baseline_digest(workload: str, seed: int) -> str | None:
    if not BASELINE.is_file():
        return None
    data = json.loads(BASELINE.read_text(encoding="utf-8"))
    if data.get("seed") != seed:
        return None
    return data.get("workloads", {}).get(workload, {}).get("artifact_sha256")


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "logcompass" / "__init__.py").is_file():
        print(f"error: no logcompass sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import check_replay, check_run, file_digest, tree_digest
    from reference import NOMINAL_S, reference_s
    from tracing import LAYERS, TRACE_METRICS, layer_table, per_layer_specs
    from workloads import FILTER_RULES, WORKLOADS, planned_k, write_corpus

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = _fresh(WORK / w.name)
    corpus, spec_path = work / "corpus.log", work / "job.json"
    filters = None
    if w.filtered:
        filters = work / "filters.json"
        filters.write_text(json.dumps(FILTER_RULES), encoding="utf-8")
    base = {"workload": w.name, "corpus": str(corpus), "filters": filters and str(filters),
            "diagnostics": str(work / "diagnostics.txt"), "trace": None}
    setup_out = work / "setup"
    errors: list[str] = []

    # 1. Set-up: the corpus (and for stages-replay the run it replays),
    # each repeat bracketed by two timings of the reference computation.
    setup_times, setup_refs, setup_digests, setup_report = [], [], set(), ""
    reference_s()  # warm-up
    ref_before = reference_s()
    setup_end = time.perf_counter() + SETUP_MIN_S
    while len(setup_times) < SETUP_MIN_REPEATS or time.perf_counter() < setup_end:
        shutil.rmtree(setup_out, ignore_errors=True)
        t0 = time.perf_counter()
        info = write_corpus(w, args.seed, corpus)
        if w.replay:
            res, err = run_job(dict(base, mode="setup-run", out_dir=str(setup_out)), spec_path)
            if err:
                print(f"error: set-up failed: {err}", file=sys.stderr)
                return 1
            setup_report = res["stdout"]
        setup_times.append(time.perf_counter() - t0)
        ref_after = reference_s()
        setup_refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        setup_digests.add(file_digest(corpus) + (tree_digest(setup_out) if w.replay else ""))
    if len(setup_digests) != 1:
        errors.append("set-up: the same seed generated different inputs")
    plan = planned_k(w.synth_profile(args.seed))
    if w.replay:
        errors += check_run(setup_out, work / "diagnostics.txt", info, plan)
        rows = len(plan)
        base["sessions"] = str(setup_out / "sessions.csv")
    else:
        rows = info.lines

    # Every run must write the bytes of the first, and at the recorded seed
    # the bytes baseline.json names.
    mode = "replay" if w.replay else "run"
    out = work / "out"
    reference = {"digest": _baseline_digest(w.name, args.seed)}
    run_errors: list[str] = []

    def attempt(trace: Path | None = None) -> dict | None:
        """One checked job; returns its result, or None if it failed."""
        shutil.rmtree(out, ignore_errors=True)
        res, err = run_job(dict(base, mode=mode, out_dir=str(out), trace=trace and str(trace)), spec_path)
        try:
            if err:
                problems = [err]
            elif w.replay:
                problems = check_replay(out, setup_out, res["stdout"], setup_report)
            else:
                problems = check_run(out, work / "diagnostics.txt", info, plan)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems = [f"unreadable artifact: {exc!r}"]
        if not err:
            digest = tree_digest(out)
            reference.setdefault("first", digest)
            if digest != (reference["digest"] or reference["first"]):
                problems.append("artifacts differ from " + (
                    "the digest recorded in baseline.json" if reference["digest"] else "the first run's"))
        run_errors.extend(problems)
        return None if problems else res

    # 2-3. Closed loop of untraced runs, every one checked and bracketed by
    # two timings of the reference computation.
    timed = []
    attempted = failed = 0
    ref_before = reference_s()
    deadline = time.perf_counter() + args.seconds
    while attempted < 1 + MIN_TIMED_RUNS or time.perf_counter() < deadline:
        res = attempt()
        ref_after = reference_s()
        if res is None:
            failed += 1
        elif attempted > 0:
            timed.append(dict(res, ref_s=(ref_before + ref_after) / 2))
        attempted += 1
        ref_before = ref_after
    if not timed:
        print(f"error: no run succeeded: {run_errors[:3]}", file=sys.stderr)
        return 1
    run_s = [r["run_s"] for r in timed]
    run_ref = [r["run_s"] / r["ref_s"] for r in timed]
    metrics = {
        "run_ref": (statistics.median(run_ref), "ref"),
        "rows_per_ref": (statistics.median(rows / t for t in run_ref), "rows/ref"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
        "setup_s": (NOMINAL_S * statistics.median(t / r for t, r in zip(setup_times, setup_refs)), "s"),
    }
    wall = {
        "wall.run_s": statistics.median(run_s),
        "wall.rows_per_s": statistics.median(rows / t for t in run_s),
        "wall.setup_s": statistics.median(setup_times),
        "wall.reference_s": statistics.median(r["ref_s"] for r in timed),
    }

    # 4. One traced run.
    if args.trace:
        trace_path = work / "spans.json"
        trace_path.unlink(missing_ok=True)
        attempted += 1
        if attempt(trace_path) is None:
            failed += 1
        if not trace_path.is_file():
            print(f"error: traced run failed: {run_errors[-1:]}", file=sys.stderr)
            return 1
        spans = json.loads(trace_path.read_text(encoding="utf-8"))
        table = layer_table(spans, wall["wall.run_s"])
        (work / "layers.json").write_text(json.dumps(table, indent=1, sort_keys=True), encoding="utf-8")
    errors += run_errors

    print(f"workload {w.name}, seed {args.seed}: {attempted} runs attempted "
          f"(1 warm-up{', 1 traced' if args.trace else ''}), {failed} failed, "
          f"{len(timed)} timed over {args.seconds:g} s; {rows} input rows")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:14.6f} {unit}")
    print(f"  {'failed_ratio':<16} {failed / attempted:14.6f} runs failed / runs attempted")
    for spec in WALL_SPECS:
        print(f"  {spec['name']:<16} {wall[spec['name']]:14.6f} {spec['unit']}")
    if len(run_s) >= 2:  # quantiles needs two points; failed runs leave fewer
        for name, values in (("run_ref", run_ref), ("wall.run_s", run_s)):
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"  {name} over {len(values)} timed runs: min {min(values):.6f} p25 {q1:.6f} "
                  f"median {q2:.6f} p75 {q3:.6f} max {max(values):.6f}")
    print(f"  artifact_sha256 {reference.get('first', '-')}")
    for e in errors[:10]:
        print(f"  CHECK FAILED: {e}")
    if args.trace:
        print(f"  {'layer':<32} {'self s':>10} {'calls':>6}")
        for layer in LAYERS:
            if table[f"{layer}.calls"]:
                print(f"  {layer:<32} {table[layer + '.s']:10.6f} {table[layer + '.calls']:6d}")
        for name in TRACE_METRICS:
            print(f"  {name:<32} {table[name]:10.6f}")
        reported = {s["name"]: (table[s["name"]], s["unit"]) for s in per_layer_specs()}
        reported.update({s["name"]: (wall[s["name"]], s["unit"]) for s in WALL_SPECS})
    else:
        reported = metrics
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
