"""In-memory spans around stage calls and the per-layer table derived from them.

A span records its name, start, end, parent, the growth of the process's
peak RSS while it was open, and counts set by the caller. Spans are kept in
memory and written out once, when the traced job ends. A layer's self time
is its spans' durations minus those of their child spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Layer name -> extra metrics beyond .s, .peak_rss_delta_mb and .calls.
# Layers are named after the module that holds the call they wrap.
LAYERS = {
    "events.parse": ("lines_in", "events_out", "malformed"),
    "events.filter": ("rows_in", "rows_out", "kept_ratio"),
    "pipeline.sessionize": ("rows_in", "sessions_out"),
    "pipeline.write_sessions": ("rows_in", "bytes"),
    "blocks.metrics": ("rows_in", "blocks"),
    "taxonomy.classify": ("rows_in", "fallback_ratio"),
    "routes.extract": ("rows_in", "routes", "steps"),
    "routes.communities": ("rows_in", "pairs", "distinct_ratio", "merges"),
    "pipeline.read_sessions": ("rows",),
    "pipeline.read_metrics": ("rows",),
    "pipeline.read_classifications": ("rows",),
    "pipeline.read_routes": ("rows",),
    "pipeline.write_artifacts": ("rows_in", "bytes"),
    "graphio.export": ("bytes",),
    "pipeline.report": ("bytes",),
}
# Ratio metric -> (numerator count, denominator count) of the same layer.
RATIOS = {
    "kept_ratio": ("rows_out", "rows_in"),
    "fallback_ratio": ("fallback", "rows_in"),
    "distinct_ratio": ("distinct", "rows_in"),
}
ROOT = "job"
TRACE_METRICS = ("trace.total_s", "trace.uncovered_s", "trace.overhead_s")


def _unit(metric: str) -> str:
    if metric in ("s", "total_s", "uncovered_s", "overhead_s"):
        return "s"
    if metric == "peak_rss_delta_mb":
        return "MB"
    if metric == "bytes":
        return "B"
    if metric in RATIOS:
        return "ratio"
    return "count"


def _better(metric: str) -> str:
    # Time, memory, bytes written and work done are better smaller; the
    # remaining counts describe data and read higher when less is dropped.
    lower = ("s", "total_s", "uncovered_s", "overhead_s", "peak_rss_delta_mb",
             "bytes", "calls", "pairs", "fallback_ratio")
    return "lower" if metric in lower else "higher"


def per_layer_specs() -> list[dict]:
    """Every per-layer metric as a BENCHMARK.json entry, in report order."""
    specs = []
    for layer, extras in LAYERS.items():
        for metric in ("s", "peak_rss_delta_mb", "calls") + extras:
            specs.append({"name": f"{layer}.{metric}", "unit": _unit(metric), "better": _better(metric)})
    for name in TRACE_METRICS:
        metric = name.split(".", 1)[1]
        specs.append({"name": name, "unit": _unit(metric), "better": _better(metric)})
    return specs


def peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM), in MB.

    Not ru_maxrss: on Linux a child inherits its parent's peak through
    fork and exec, so ru_maxrss would report the benchmark's own peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tracer:
    """Collects spans for one traced job; one instance per job."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the block; yields the span's count dict, which may be filled later."""
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "counts": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        rss0 = peak_rss_mb()
        span["start"] = time.perf_counter()
        try:
            yield span["counts"]
        finally:
            span["end"] = time.perf_counter()
            span["peak_rss_delta_mb"] = peak_rss_mb() - rss0
            self._open.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus its direct children's durations.

    Spans come from nested context managers in one thread, so children
    never overlap one another or outlast their parent.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_table(spans: list[dict], untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics summed over each layer's spans, plus the trace totals.

    Layers the job never called report zeros. trace.uncovered_s is the part
    of the root span that no layer span accounts for.
    """
    self_s = self_times(spans)
    sums = {layer: {"s": 0.0, "peak_rss_delta_mb": 0.0, "calls": 0} for layer in LAYERS}
    for s in spans:
        acc = sums.get(s["name"])
        if acc is None:
            continue
        acc["s"] += self_s[s["id"]]
        acc["peak_rss_delta_mb"] += s["peak_rss_delta_mb"]
        acc["calls"] += 1
        for key, value in s["counts"].items():
            acc[key] = acc.get(key, 0) + value
    table: dict[str, float] = {}
    for layer, extras in LAYERS.items():
        acc = sums[layer]
        for metric in ("s", "peak_rss_delta_mb", "calls") + extras:
            if metric in RATIOS:
                num, den = RATIOS[metric]
                value = acc.get(num, 0) / acc[den] if acc.get(den) else 0.0
            else:
                value = acc.get(metric, 0)
            table[f"{layer}.{metric}"] = value
    roots = [s for s in spans if s["parent"] is None]
    total = sum(s["end"] - s["start"] for s in roots)
    table["trace.total_s"] = total
    table["trace.uncovered_s"] = total - sum(table[f"{layer}.s"] for layer in LAYERS)
    table["trace.overhead_s"] = total - untraced_run_s
    return table
