"""Measures the time-space trade-off curve of triangulation and shortest-path
trees, and writes BENCH_tradeoff.json at the repository root.

    PYTHONPATH=src python3 scripts/bench_tradeoff.py [--parent DIR] [--reps 3]

Inputs are oracle.generate("spiral" | "comb", n, 1) at n = 2000, 4000 and
8000.  Each is triangulated (triangulate_polygon) and given its shortest-path
tree from vertex 1 (spt), with audits off and a strict meter, at four
budgets: the strict floor s = 8*ceil(log2 n), four times the floor, n/10 - 1
and n (where the whole polygon is solved in memory).  A run records its wall
time, the RunStats links, rounds and scans, the meter peak and per-level
peaks and a digest of the output in emission order.

The paper's walk costs O(n^2 / s) time.  For each polygon and job the script
fits the exponent b of time ~ s^b by least squares on log time over log s at
the budgets that walk, those with 10*s < n (the in-memory rule), which drops
four times the floor at n = 2000 (b = -1 is the paper's shape, 0 a flat
curve), and for each polygon kind, job and budget rule the exponent of
time ~ n^b over the three sizes.

Runs are fresh processes, compared with --parent DIR (a checkout, e.g. made
with git archive) as scripts/harness.py says: sides alternate, times are
medians over --reps, and outputs, links and peaks must equal the parent's.
"""
from __future__ import annotations

import math
import statistics
import sys
import time

from harness import bench, digest, write_json

SEED = 1
CASES = tuple((kind, n) for kind in ("spiral", "comb")
              for n in (2000, 4000, 8000))
JOBS = ("tri", "spt")
BUDGETS = ("floor", "4floor", "tenth", "n")


def worker(kind: str, n: str) -> list:
    """Both jobs at every budget on one polygon: a list of runs."""
    from polyws import oracle
    from polyws.spt import spt
    from polyws.triangulate import required_budget, triangulate_polygon

    n, floor = int(n), required_budget(int(n))
    poly = oracle.generate(kind, n, SEED)
    runs = []
    for job in JOBS:
        for label, s in zip(BUDGETS, (floor, 4 * floor, n // 10 - 1, n)):
            t0 = time.perf_counter()
            if job == "tri":
                sink, meter, stats = triangulate_polygon(poly, s, audit=False)
                out = sink.diagonals
            else:
                sink, meter, stats = spt(poly, 1, s, audit=False)
                out = sink.edges
            wall = time.perf_counter() - t0
            runs.append({"job": job, "budget": label, "s": s,
                         "wall_s": wall, "links": stats.links,
                         "rounds": stats.rounds, "scans": stats.scans,
                         "peak_words": meter.peak_words,
                         "level_peaks": list(meter.level_peaks),
                         "digest": digest(out)})
    return runs


def slope(xs, ys) -> float:
    """Least-squares slope of log y over log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / \
        sum((a - mx) ** 2 for a in lx)


def exponents(entries, tree: str) -> dict:
    """time ~ s^b per polygon and job over the budgets that walk, and
    time ~ n^b per kind, job and budget rule over the sizes."""
    s_exp, n_exp = {}, {}
    for e in entries:
        for job in JOBS:
            rows = [r for r in e[tree] if r["job"] == job
                    and 10 * r["s"] < e["n"]]
            s_exp[f"{e['polygon']}/{job}"] = round(slope(
                [r["s"] for r in rows], [r["wall_s"] for r in rows]), 3)
    for kind in sorted({e["kind"] for e in entries}):
        mine = [e for e in entries if e["kind"] == kind]
        for job in JOBS:
            for label in BUDGETS:
                rows = [next(r for r in e[tree] if r["job"] == job
                             and r["budget"] == label) for e in mine]
                n_exp[f"{kind}/{job}/{label}"] = round(slope(
                    [e["n"] for e in mine], [r["wall_s"] for r in rows]), 3)
    return {"time_vs_s": s_exp, "time_vs_n": n_exp}


def main(argv=None) -> int:
    entries, args = bench(
        argv, __file__, __doc__, 3, worker, CASES,
        lambda case, got: {"polygon": "{}-{}".format(*case), "kind": case[0],
                           "n": case[1], **got})
    write_json("BENCH_tradeoff.json",
               "triangulation and SPT from vertex 1 against the budget s: "
               "wall time (median over alternating fresh-process runs), "
               "links, rounds, scans and meter peaks, with the fitted "
               "exponents of time over s and over n",
               seed=SEED, reps=args.reps,
               exponents={tree: exponents(entries, tree)
                          for tree in ("parent", "change")
                          if tree in entries[0]},
               results=entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
