"""The harness that the scripts/bench_*.py benchmarks and output_digests.py
share.

A benchmark runs each case in fresh worker processes, `SCRIPT --worker SRC
ARGS...` with SRC (a checkout's src/) on PYTHONPATH, and reads the JSON on
the worker's last line of output.  With --parent DIR the rep loop runs
DIR/src and this checkout's src/ once each per rep, and the two take turns
to go first.  Reported times (TIMES) are medians over the reps; every other
value is the first rep's.  One equality rule holds against the parent
(EQUAL): the outputs in emission order (as a digest), the links, the meter
peak and the per-level peaks.  Rounds and scans are reported for both sides
and never compared, since any change to the cone search moves them.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
# a row's keys that are medians over the reps (per key, where the value is a
# dict); None stays None
TIMES = ("wall_s", "ms_per_link", "ms_per_vertex")
# a row's keys that must equal the parent's: the outputs' digest (named
# "digest" or "edges_sha"), the links, the meter peak and per-level peaks
EQUAL = ("digest", "edges_sha", "links", "peak_words", "level_peaks")
# a view by how many of its vertices are not integer points
VIEW_KINDS = ("integer", "one_rational", "multi_rational")


def machine() -> dict:
    """CPU model, core count, Python and numpy versions, and platform."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def digest(value) -> str:
    """A short digest of the value's repr."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def start(script, src, *args) -> subprocess.Popen:
    """A worker process `script --worker src args...` that imports polyws
    from src (and perfbench's workloads from this checkout)."""
    path = os.pathsep.join((str(src), str(ROOT / "perfbench")))
    return subprocess.Popen(
        [sys.executable, str(script), "--worker", str(src), *map(str, args)],
        env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE,
        text=True)


def finish(proc: subprocess.Popen):
    """The JSON on the worker's last line of output.  A failed worker (its
    traceback is on stderr) ends the script with exit code 2."""
    out, _ = proc.communicate()
    if proc.returncode != 0:
        print(f"worker failed with exit code {proc.returncode}",
              file=sys.stderr)
        raise SystemExit(2)
    return json.loads(out.strip().splitlines()[-1])


def rep_loop(trees: dict, reps: int, run) -> dict:
    """Each tree's results of `run(src)` over `reps` reps; the trees take
    turns to go first, so neither side always runs on a colder machine."""
    out = {tree: [] for tree in trees}
    order = list(trees.items())
    for _ in range(reps):
        for tree, src in order:
            out[tree].append(run(src))
        order.reverse()
    return out


def _median(values):
    if isinstance(values[0], dict):
        return {k: _median([v[k] for v in values]) for k in values[0]}
    return None if values[0] is None else round(statistics.median(values), 4)


def medians(reps: list):
    """The first rep's result, a row or a list of rows, with each TIMES key
    the median over the reps."""
    head = reps[0]
    if isinstance(head, list):
        return [medians([r[j] for r in reps]) for j in range(len(head))]
    return {**head, **{key: _median([r[key] for r in reps])
                       for key in TIMES if key in head}}


def check_equal(parent, change, where: str) -> None:
    """Raises AssertionError unless every EQUAL key of the change's rows (a
    row or a list of rows) equals the parent's."""
    if isinstance(parent, list):
        for j, (a, b) in enumerate(zip(parent, change, strict=True)):
            check_equal(a, b, f"{where} run {a.get('run', j)}")
        return
    for key in EQUAL:
        if key in parent and parent[key] != change.get(key):
            raise AssertionError(f"{where}: {key} differs from the parent's")


def bench(argv, script, doc: str, reps: int, worker, cases, entry):
    """A benchmark's main: (entries, flags).  With the hidden --worker SRC
    ARGS... it prints worker(*ARGS)'s JSON and exits; otherwise each case (a
    tuple of ARGS) is measured, and its entry(case, {side: medians})
    printed."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("--parent", type=Path,
                    help="checkout of the commit to compare against")
    ap.add_argument("--reps", type=int, default=reps)
    ap.add_argument("--worker", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(*args.worker[1:])))
        sys.exit(0)
    trees = {"parent": args.parent / "src"} if args.parent else {}
    trees["change"] = ROOT / "src"
    entries = []
    for case in cases:
        runs = rep_loop(trees, args.reps,
                        lambda src: finish(start(script, src, *case)))
        got = {tree: medians(r) for tree, r in runs.items()}
        if "parent" in got:
            check_equal(got["parent"], got["change"], "-".join(map(str, case)))
        entries.append(entry(case, got))
        print(json.dumps(entries[-1]), flush=True)
    return entries, args


def write_json(name: str, what: str, **fields) -> None:
    """Writes `name` at the repository root: what was measured, the machine
    and `fields`, with each list of plain values on one line."""
    out = {"what": what, "machine": machine(), **fields}
    text = re.sub(r"\[\n\s*([^][{}]*?)\n\s*\]",
                  lambda mt: "[" + re.sub(r"\s*\n\s*", " ", mt[1]) + "]",
                  json.dumps(out, indent=1))
    with open(ROOT / name, "w") as fh:
        fh.write(text + "\n")


def view_kind(view) -> str:
    """The view's VIEW_KINDS entry by its rational_slots (a checkout from
    before them has all_int, and rational_slot for exactly one)."""
    if hasattr(view, "rational_slots"):
        return VIEW_KINDS[min(len(view.rational_slots), 2)]
    return VIEW_KINDS[0 if view.all_int else 1
                      if view.rational_slot is not None else 2]


@contextmanager
def link_log(answer=None):
    """A list of records, one per first_link call that the imported polyws's
    geodesic cursor or constant-workspace pass makes while the block runs.

    A record holds the caller ("cursor" or "pass"), for a pass link the
    pass's number within the block, the view's kind (VIEW_KINDS) and m, the
    link's q, t, prev, hints and answer, the rounds and scans it added and
    its seconds.  `answer`, when given, answers each link in place of
    first_link: answer(first_link, view, q, t, rng, stats, meter, prev,
    hints).  The wrapping adds about a microsecond per link.
    """
    geodesic = importlib.import_module("polyws.geodesic")
    spt = importlib.import_module("polyws.spt")
    from polyws.workspace import RunStats

    first_link, const_ws = geodesic.first_link, spt.spt_constant_workspace
    log = []
    passes = 0

    def counted_pass(*args, **kw):
        nonlocal passes
        passes += 1
        return const_ws(*args, **kw)

    def recorder(caller):
        def link(view, q, t, rng, stats=None, meter=None, prev=None, *,
                 hints=()):
            stats = stats if stats is not None else RunStats()
            hints = tuple(hints)
            r0, s0 = stats.rounds, stats.scans
            t0 = time.perf_counter()
            if answer is None:
                got = first_link(view, q, t, rng, stats, meter, prev,
                                 hints=hints)
            else:
                got = answer(first_link, view, q, t, rng, stats, meter, prev,
                             hints)
            secs = time.perf_counter() - t0
            log.append({"caller": caller,
                        "pass": passes if caller == "pass" else None,
                        "view": view_kind(view), "m": view.m, "q": q, "t": t,
                        "prev": prev, "hints": hints, "answer": got,
                        "rounds": stats.rounds - r0,
                        "scans": stats.scans - s0, "secs": secs})
            return got
        return link

    geodesic.first_link = recorder("cursor")
    spt.first_link = recorder("pass")
    spt.spt_constant_workspace = counted_pass
    try:
        yield log
    finally:
        geodesic.first_link = spt.first_link = first_link
        spt.spt_constant_workspace = const_ws
