"""Measures SPT's constant-workspace base case, and writes BENCH_const_ws.json
at the repository root.

    PYTHONPATH=src python3 scripts/bench_const_ws.py [--parent DIR] [--reps 5]

spt_constant_workspace runs the cone search once per chain vertex of a piece
whose funnel does not fit the meter.  Each first link aims its first shots at
hints: q - 1 and the parent emitted for the previous chain vertex (`hop`).
This script times every call of the pass, and files each of its links by
what answered it:
  "q-1"  the answer is q - 1, certified before any candidate scan;
  "hop"  the answer is the previous vertex's parent, likewise;
  "t"    the answer is the root, reached before any candidate scan;
  "none" a candidate scan ran (every link of a pass without hints);
  "edge" q is the root's boundary neighbour, answered without a search.
A row gives the pass's calls, chain vertices, RunStats rounds and scans,
milliseconds per vertex and those counts.  The cases are:
  walk    the walk workload's comb 4000 SPT (perfbench/workloads.py, seed 1,
          strict floor s = 8*ceil(log2 n), root 1), whose walk hands one
          piece to the pass;
  small   the small workload's SPT jobs (seed 1, permissive s = 16, root 1),
          which hand the pass whole polygons up to n = 160 and pieces of
          two larger ones;
  tenth   spt() from vertex 1 at s = ceil(n/10), where the whole polygon
          goes to the pass, and at s = n, where it goes to the funnel, on
          oracle.generate(kind, n, 1) for comb, random, spiral and monotone
          at n = 1000 and 2000; `ratio` is the first time over the second.
Each case also records the run's wall time, its meter peak and per-level
peaks and a digest of the tree edges in emission order.  Counting the links
wraps first_link in Python, which adds about a microsecond per link to the
times.

Every run is a fresh process.  With --parent DIR (a checkout of another
commit, e.g. made with git archive), runs of that tree's src/ and of this
one's alternate, and both must emit the same trees with the same peaks;
rounds and scans are reported, not compared.  Reported times are medians
over --reps runs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_machine import machine

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TENTH = tuple((kind, n) for n in (1000, 2000)
              for kind in ("comb", "random", "spiral", "monotone"))
CASES = ("walk", "small") + tuple(f"tenth/{k}-{n}" for k, n in TENTH)
SOURCES = ("q-1", "hop", "t", "none", "edge")


class PassMeter:
    """Wraps spt.spt_constant_workspace and the first_link it calls, and
    totals what the pass's calls do, until restore()."""

    def __init__(self, spt_mod):
        self.calls = self.vertices = self.rounds = self.scans = 0
        self.secs = 0.0
        self.hits = dict.fromkeys(SOURCES, 0)
        self.spt_mod = spt_mod
        self.pass_fn = spt_mod.spt_constant_workspace
        self.link_fn = spt_mod.first_link
        spt_mod.spt_constant_workspace = self.run_pass
        spt_mod.first_link = self.link

    def restore(self) -> None:
        self.spt_mod.spt_constant_workspace = self.pass_fn
        self.spt_mod.first_link = self.link_fn

    def run_pass(self, view, root, sink, *, rng=None, stats=None,
                 meter=None):
        r0, s0 = stats.rounds, stats.scans
        t0 = time.perf_counter()
        try:
            return self.pass_fn(view, root, sink, rng=rng, stats=stats,
                                meter=meter)
        finally:
            self.secs += time.perf_counter() - t0
            self.calls += 1
            self.rounds += stats.rounds - r0
            self.scans += stats.scans - s0

    def link(self, view, q, t, rng, stats, meter, *args, **kw):
        r0, s0 = stats.rounds, stats.scans
        got = self.link_fn(view, q, t, rng, stats, meter, *args, **kw)
        self.vertices += 1
        # a link that made no candidate scan was answered by a hint's shot
        if stats.rounds == r0:
            source = "edge"
        elif stats.scans > s0:
            source = "none"
        elif got == t:
            source = "t"
        else:
            source = "q-1" if got == kw["hints"][0] else "hop"
        self.hits[source] += 1
        return got

    def row(self) -> dict:
        return {"calls": self.calls, "vertices": self.vertices,
                "rounds": self.rounds, "scans": self.scans,
                "ms_per_vertex": (self.secs * 1e3 / self.vertices
                                  if self.vertices else None),
                "hits": dict(self.hits)}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _spt_run(spt_mod, poly, s, **kw) -> dict:
    """One spt() from vertex 1, with the pass's counts."""
    pm = PassMeter(spt_mod)
    t0 = time.perf_counter()
    try:
        sink, meter, _ = spt_mod.spt(poly, 1, s, **kw)
    finally:
        pm.restore()
    return {"s": s, "wall_s": time.perf_counter() - t0, **pm.row(),
            "edges_sha": _digest(sink.edges), "peak_words": meter.peak_words,
            "level_peaks": list(meter.level_peaks)}


def worker(src: str, case: str) -> list:
    """One case against the polyws under `src`: a list of runs."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import importlib

    from polyws import oracle
    from polyws.triangulate import required_budget
    from polyws.workspace import MeterMode
    from workloads import SMALL_S, build, general_polygon

    spt_mod = importlib.import_module("polyws.spt")
    if case.startswith("tenth/"):
        kind, n = case[6:].rsplit("-", 1)
        n = int(n)
        poly = oracle.generate(kind, n, SEED)
        return [dict(_spt_run(spt_mod, poly, s), run=label)
                for label, s in (("tenth", math.ceil(n / 10)), ("full", n))]
    runs = []
    for p in build(case, SEED).polys:
        if case == "walk" and p.name != "comb-4000":
            continue
        poly = general_polygon(p.kind, p.n, p.gen_seed)
        if case == "walk":
            row = _spt_run(spt_mod, poly, required_budget(p.n))
        else:
            row = _spt_run(spt_mod, poly, SMALL_S,
                           mode=MeterMode.PERMISSIVE)
        runs.append(dict(row, run=p.name))
    return runs


def run(src: Path, case: str) -> list:
    out = subprocess.run(
        [sys.executable, __file__, "--worker", str(src), case],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def medians(reps) -> list:
    """The first rep's runs with their times the medians over all reps."""
    runs = []
    for j, head in enumerate(reps[0]):
        row = dict(head)
        for key in ("wall_s", "ms_per_vertex"):
            if head[key] is not None:
                row[key] = round(statistics.median(r[j][key] for r in reps),
                                 4)
        runs.append(row)
    return runs


def summary(runs) -> dict:
    """The runs' totals: the pass's counts summed over the runs that reach
    it, and for a tenth case the time ratio of s = ceil(n/10) to s = n."""
    used = [r for r in runs if r["vertices"]]
    out = {key: sum(r[key] for r in used)
           for key in ("calls", "vertices", "rounds", "scans")}
    out["hits"] = {k: sum(r["hits"][k] for r in used) for k in SOURCES}
    if used:
        out["ms_per_vertex"] = round(
            sum(r["ms_per_vertex"] * r["vertices"] for r in used)
            / out["vertices"], 4)
    if runs[0]["run"] == "tenth":
        out["ratio"] = round(runs[0]["wall_s"] / runs[1]["wall_s"], 2)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path,
                    help="checkout of the commit to compare against")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--worker", nargs=2, metavar=("SRC", "CASE"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(*args.worker)))
        return 0
    trees = {"change": ROOT / "src"}
    if args.parent is not None:
        trees = {"parent": args.parent / "src", **trees}
    results = []
    for case in CASES:
        rows = {tree: [] for tree in trees}
        for _ in range(args.reps):
            for tree, src in trees.items():
                rows[tree].append(run(src, case))
        entry = {"case": case}
        for tree in trees:
            runs = medians(rows[tree])
            entry[tree] = {"summary": summary(runs), "runs": runs}
        if "parent" in entry:
            for a, b in zip(entry["parent"]["runs"], entry["change"]["runs"]):
                for key in ("edges_sha", "peak_words", "level_peaks"):
                    if a[key] != b[key]:
                        raise AssertionError(f"{case} {a['run']}: {key} "
                                             f"differs from the parent's")
        print(json.dumps(entry), flush=True)
        results.append(entry)
    out = {"what": "SPT's constant-workspace pass: calls, chain vertices, "
                   "rounds, scans, ms per vertex and links by what answered "
                   "them; SPT at s = ceil(n/10) against s = n (medians over "
                   "alternating fresh-process runs)",
           "seed": SEED, "reps": args.reps, "machine": machine(),
           "results": results}
    with open(ROOT / "BENCH_const_ws.json", "w") as fh:
        fh.write(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
