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

Every run is a fresh process, one per polygon and source tree.  With
--parent DIR (a checkout of another commit, e.g. made with git archive),
runs of that tree's src/ and of this one's alternate, each going first in
every other repetition, and both must give the same outputs, links and
peaks; rounds and scans are reported, not compared.  Reported times are
medians over --reps runs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
CASES = tuple((kind, n) for kind in ("spiral", "comb")
              for n in (2000, 4000, 8000))
JOBS = ("tri", "spt")
BUDGETS = ("floor", "4floor", "tenth", "n")
EQUAL = ("digest", "links", "peak_words", "level_peaks")


def budgets(n: int, floor: int) -> dict:
    return {"floor": floor, "4floor": 4 * floor, "tenth": n // 10 - 1,
            "n": n}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def worker(src: str, kind: str, n: int) -> list:
    """Both jobs at every budget on one polygon, against the polyws under
    `src`: a list of runs."""
    sys.path[:0] = [src]
    from polyws import oracle
    from polyws.spt import spt
    from polyws.triangulate import required_budget, triangulate_polygon

    poly = oracle.generate(kind, n, SEED)
    runs = []
    for job in JOBS:
        for label, s in budgets(n, required_budget(n)).items():
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
                         "digest": _digest(out)})
    return runs


def run(src: Path, kind: str, n: int) -> list:
    out = subprocess.run(
        [sys.executable, __file__, "--worker", str(src), kind, str(n)],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def medians(reps) -> list:
    """The first rep's runs with wall_s the median over all reps."""
    return [dict(head, wall_s=round(statistics.median(
                r[j]["wall_s"] for r in reps), 4))
            for j, head in enumerate(reps[0])]


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


def machine() -> dict:
    import numpy
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path,
                    help="checkout of the commit to compare against")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--worker", nargs=3, metavar=("SRC", "KIND", "N"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        src, kind, n = args.worker
        print(json.dumps(worker(src, kind, int(n))))
        return 0
    trees = {"change": ROOT / "src"}
    if args.parent is not None:
        trees = {"parent": args.parent / "src", **trees}
    entries = []
    for kind, n in CASES:
        reps = {tree: [] for tree in trees}
        order = list(trees.items())
        for _ in range(args.reps):
            for tree, src in order:
                reps[tree].append(run(src, kind, n))
            order.reverse()     # the other tree goes first next time
        entry = {"polygon": f"{kind}-{n}", "kind": kind, "n": n}
        for tree in trees:
            entry[tree] = medians(reps[tree])
        if "parent" in entry:
            for a, b in zip(entry["parent"], entry["change"]):
                for key in EQUAL:
                    if a[key] != b[key]:
                        raise AssertionError(
                            f"{kind}-{n} {a['job']} s={a['s']}: {key} "
                            f"differs from the parent's")
        print(json.dumps(entry), flush=True)
        entries.append(entry)
    out = {"what": "triangulation and SPT from vertex 1 against the budget "
                   "s: wall time (median over alternating fresh-process "
                   "runs), links, rounds, scans and meter peaks, with the "
                   "fitted exponents of time over s and over n",
           "seed": SEED, "reps": args.reps, "machine": machine(),
           "exponents": {tree: exponents(entries, tree) for tree in trees},
           "results": entries}
    with open(ROOT / "BENCH_tradeoff.json", "w") as fh:
        fh.write(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
