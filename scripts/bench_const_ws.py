"""Measures SPT's constant-workspace base case, and writes BENCH_const_ws.json
at the repository root.

    PYTHONPATH=src python3 scripts/bench_const_ws.py [--parent DIR] [--reps 5]

spt_constant_workspace runs the cone search once per chain vertex of a piece
whose funnel does not fit the meter.  Each first link aims its first shots at
hints: q - 1 and the parent emitted for the previous chain vertex (`hop`).
This script times every link of the pass, and files each of them by
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
peaks and a digest of the tree edges in emission order.  The links are
counted by scripts/harness.py's link_log, which adds about a microsecond
per link to the times.

Runs are fresh processes, compared with --parent DIR (a checkout, e.g. made
with git archive) as scripts/harness.py says: sides alternate, times are
medians over --reps, and outputs, links and peaks must equal the parent's.
"""
from __future__ import annotations

import math
import sys
import time

from harness import bench, digest, link_log, write_json

SEED = 1
TENTH = tuple((kind, n) for n in (1000, 2000)
              for kind in ("comb", "random", "spiral", "monotone"))
CASES = ("walk", "small") + tuple(f"tenth/{k}-{n}" for k, n in TENTH)
SOURCES = ("q-1", "hop", "t", "none", "edge")


def source(rec) -> str:
    """What answered a pass link (SOURCES); a link that made no candidate
    scan was answered by a hint's shot."""
    if rec["rounds"] == 0:
        return "edge"
    if rec["scans"]:
        return "none"
    if rec["answer"] == rec["t"]:
        return "t"
    return "q-1" if rec["answer"] == rec["hints"][0] else "hop"


def spt_run(poly, s, **kw) -> dict:
    """One spt() from vertex 1, with the constant-workspace pass's counts."""
    from polyws.spt import spt

    t0 = time.perf_counter()
    with link_log() as log:
        sink, meter, _ = spt(poly, 1, s, **kw)
    wall = time.perf_counter() - t0
    links = [r for r in log if r["caller"] == "pass"]
    hits = {k: sum(source(r) == k for r in links) for k in SOURCES}
    secs = sum(r["secs"] for r in links)
    return {"s": s, "wall_s": wall, "calls": len({r["pass"] for r in links}),
            "vertices": len(links), "rounds": sum(r["rounds"] for r in links),
            "scans": sum(r["scans"] for r in links),
            "ms_per_vertex": secs * 1e3 / len(links) if links else None,
            "hits": hits, "edges_sha": digest(sink.edges),
            "peak_words": meter.peak_words,
            "level_peaks": list(meter.level_peaks)}


def worker(case: str) -> list:
    """One case: a list of runs."""
    from polyws import oracle
    from polyws.triangulate import required_budget
    from polyws.workspace import MeterMode
    from workloads import SMALL_S, build, general_polygon

    if case.startswith("tenth/"):
        kind, n = case[6:].rsplit("-", 1)
        n = int(n)
        poly = oracle.generate(kind, n, SEED)
        return [dict(spt_run(poly, s), run=label)
                for label, s in (("tenth", math.ceil(n / 10)), ("full", n))]
    runs = []
    for p in build(case, SEED).polys:
        if case == "walk" and p.name != "comb-4000":
            continue
        poly = general_polygon(p.kind, p.n, p.gen_seed)
        if case == "walk":
            row = spt_run(poly, required_budget(p.n))
        else:
            row = spt_run(poly, SMALL_S, mode=MeterMode.PERMISSIVE)
        runs.append(dict(row, run=p.name))
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


def entry(case, got) -> dict:
    return {"case": case[0], **{tree: {"summary": summary(runs), "runs": runs}
                                for tree, runs in got.items()}}


def main(argv=None) -> int:
    results, args = bench(argv, __file__, __doc__, 5, worker,
                          [(case,) for case in CASES], entry)
    write_json("BENCH_const_ws.json",
               "SPT's constant-workspace pass: calls, chain vertices, "
               "rounds, scans, ms per vertex and links by what answered "
               "them; SPT at s = ceil(n/10) against s = n (medians over "
               "alternating fresh-process runs)",
               seed=SEED, reps=args.reps, results=results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
