"""Output checks on a job's artifacts, independent of logcompass's own readers.

Each check returns a list of error strings; an empty list means the run's
outputs are correct. The checker parses the CSV and JSON artifacts itself so
that a defect in a logcompass reader cannot hide a defect in its writer.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Sequence

from workloads import CorpusInfo

LABELS = ("a", "b", "c", "d", "e", "f")
SESSIONS_HEADER = ["session_id", "user_hash", "start_ms", "end_ms", "k_items"]


def tree_digest(directory: Path) -> str:
    """sha256 over the names and bytes of every file in directory, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_sessions(path: Path, planned_k: Sequence[int]) -> list[str]:
    """sessions.csv holds the generator's sessions: same count, same ordered K."""
    try:
        header, rows = _rows(path)
    except OSError as exc:
        return [f"sessions: {exc}"]
    if header != SESSIONS_HEADER:
        return [f"sessions: header {header!r}"]
    errors = []
    if len(rows) != len(planned_k):
        errors.append(f"sessions: {len(rows)} rows, planned {len(planned_k)}")
    if [r[0] for r in rows] != [str(i) for i in range(len(rows))]:
        errors.append("sessions: session_id does not run 0..n-1")
    k = [int(r[4]) for r in rows]
    if k != list(planned_k):
        first = next((i for i, (x, y) in enumerate(zip(k, planned_k)) if x != y), min(len(k), len(planned_k)))
        errors.append(f"sessions: k_items differs from the plan at row {first}")
    return errors


def check_report(path: Path, info: CorpusInfo, sessions: int) -> list[str]:
    """report.json counts every input line where the generator put it."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report: {exc}"]
    want = {"parsed": info.lines, "kept": info.kept, "malformed": info.malformed}
    errors = []
    if report.get("events") != want:
        errors.append(f"report: events {report.get('events')!r}, generated {want!r}")
    if report.get("sessions", {}).get("total") != sessions:
        errors.append(f"report: sessions.total {report.get('sessions')!r}, planned {sessions}")
    return errors


def check_diagnostics(path: Path, info: CorpusInfo) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        n = sum(1 for _ in fh)
    return [] if n == info.malformed else [f"diagnostics: {n} lines, injected {info.malformed} malformed"]


def check_partition(out: Path) -> list[str]:
    """communities.csv partitions routes.csv: sizes and step labels add up, ids are dense."""
    r_header, routes = _rows(out / "routes.csv")
    c_header, communities = _rows(out / "communities.csv")
    if r_header[:2] != ["owner", "steps"] or c_header[:2] != ["community_id", "size"]:
        return ["communities: unexpected routes or communities header"]
    errors = []
    owners = [r[0] for r in routes]
    if len(set(owners)) != len(owners):
        errors.append("routes: duplicate owners")
    if [c[0] for c in communities] != [str(i) for i in range(len(communities))]:
        errors.append("communities: ids are not 0..m-1")
    sizes = [int(c[1]) for c in communities]
    if any(s < 1 for s in sizes) or sum(sizes) != len(owners):
        errors.append(f"communities: sizes sum to {sum(sizes)}, {len(owners)} routes")
    steps = Counter(label for r in routes for label in r[1].split(","))
    col = {name: i for i, name in enumerate(c_header)}
    for label in LABELS:
        total = sum(int(c[col[f"count_{label}"]]) for c in communities)
        if total != steps.get(label, 0):
            errors.append(f"communities: count_{label} sums to {total}, routes have {steps.get(label, 0)}")
    return errors


def check_run(out: Path, diagnostics: Path, info: CorpusInfo, planned_k: Sequence[int]) -> list[str]:
    """Every check on the artifacts of one `run` of the pipeline."""
    return (
        check_sessions(out / "sessions.csv", planned_k)
        + check_report(out / "report.json", info, len(planned_k))
        + check_diagnostics(diagnostics, info)
        + check_partition(out)
    )


def check_replay(out: Path, reference: Path, report: str, reference_report: str) -> list[str]:
    """A stage-by-stage replay wrote exactly the files `run` wrote, report aside."""
    errors = []
    want = {p.name for p in reference.iterdir()} - {"sessions.csv", "report.json"}
    got = {p.name for p in out.iterdir()}
    if got != want:
        errors.append(f"replay: wrote {sorted(got)}, expected {sorted(want)}")
    for name in sorted(got & want):
        if (out / name).read_bytes() != (reference / name).read_bytes():
            errors.append(f"replay: {name} differs from run's")
    if report != reference_report:
        errors.append("replay: report output differs from run's")
    return errors + check_partition(out)
