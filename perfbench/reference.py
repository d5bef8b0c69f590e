"""A fixed reference computation that measures how fast the machine is right now.

The benchmark runs on shared hosts whose speed swings by more than half
for seconds to minutes at a time, in CPU time as well as wall time. The
benchmark times this computation just before and just after every set-up
and every job and reports their times in units of it, so a slow spell that
stretches both cancels out. The computation is a fixed mix of the kinds of work the jobs
do (JSON decoding, regex matching, grouping in dicts, sorting, CSV writing
and a small dynamic-programming loop) on inputs that never change, and it
calls no logcompass code, so a change to the program cannot move it.
"""

from __future__ import annotations

import csv
import io
import json
import re
import time

_LINES = [
    json.dumps({"ts": 1_600_000_000_000 + i * 37, "user": f"u{i % 97:04d}",
                "item": f"/articles/i{i * 7919 % 1_000_000:06d}"})
    for i in range(4000)
]
_ITEM = re.compile(r"^/articles/i[0-9]{6}$")
_ROUNDS = 6
# Seconds the reference is taken to last on a nominal machine: about its
# time on an unloaded 2.1 GHz Xeon vCPU under CPython 3.11. run.py reports
# set-up time in seconds on such a machine.
NOMINAL_S = 0.1


def _round() -> int:
    records = [json.loads(line) for line in _LINES]
    records = [r for r in records if _ITEM.match(r["item"])]
    by_user: dict[str, list[int]] = {}
    for r in records:
        by_user.setdefault(r["user"], []).append(r["ts"])
    buf = io.StringIO()
    writer = csv.writer(buf)
    for user, stamps in sorted(by_user.items()):
        stamps.sort()
        writer.writerow([user, len(stamps), stamps[0], stamps[-1]])
    a = [r["item"][-1] for r in records[:120]]
    b = a[::-1]
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return len(buf.getvalue()) + prev[-1]


def reference_s() -> float:
    """Wall time of one reference computation, in seconds."""
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        _round()
    return time.perf_counter() - t0
