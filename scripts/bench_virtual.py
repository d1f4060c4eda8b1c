"""Measures SPT's geodesic links by the kind of view they run on, and writes
BENCH_virtual.json at the repository root.

    PYTHONPATH=src python3 scripts/bench_virtual.py [--parent DIR] [--reps 5]

SPT's far case splits a piece at the extension of its last walked edge, which
makes a virtual vertex with rational coordinates.  This script runs spt() from
vertex 1 at the strict floor budget s = 8*ceil(log2 n) on comb 4000 and comb
8000, made as perfbench/workloads.py makes them from seed 1, and times every
first_link call (the cursor's and the constant-workspace pass's).  Each call
is filed by its view: "integer" (every vertex has integer coordinates),
"one_rational" (exactly one does not) or "multi_rational" (two or more).  A
row gives the links and milliseconds per link of each kind, the run's wall
time, its RunStats scans and rounds, its meter peak and a digest of the tree
edges in emission order.

Every run is a fresh process.  With --parent DIR (a checkout of another
commit, e.g. made with git archive), runs of that tree's src/ and of this
one's alternate, and both must emit the same tree with the same scans,
rounds and peak.  Reported values are medians over --reps runs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# (name, kind, n, generation seed): the walk workload's comb 4000, and a
# comb 8000 from the same generation seed
POLYGONS = (("comb-4000", "comb", 4000, SEED * 1000),
            ("comb-8000", "comb", 8000, SEED * 1000))
KINDS = ("integer", "one_rational", "multi_rational")


def view_kind(view) -> str:
    """The view's class by how many of its vertices are not integer points,
    read from the descriptor's stored cut vertices."""
    rational = 0
    for it in view.items:
        cv = it[1]
        if it[0] != 0 and cv.base is None and not (
                isinstance(cv.point[0], int) and isinstance(cv.point[1], int)):
            rational += 1
    return KINDS[min(rational, 2)]


def worker(src: str, name: str) -> dict:
    """One SPT run of polygon `name` against the polyws under `src`."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import importlib

    from polyws import geodesic
    from polyws.triangulate import required_budget
    from workloads import general_polygon

    spt_mod = importlib.import_module("polyws.spt")
    _, kind, n, gen_seed = next(p for p in POLYGONS if p[0] == name)
    poly = general_polygon(kind, n, gen_seed)
    first_link = geodesic.first_link
    links = {k: 0 for k in KINDS}
    secs = {k: 0.0 for k in KINDS}
    clock = time.perf_counter

    def timed(view, *args, **kw):
        k = view_kind(view)
        t0 = clock()
        try:
            return first_link(view, *args, **kw)
        finally:
            secs[k] += clock() - t0
            links[k] += 1

    geodesic.first_link = spt_mod.first_link = timed
    s = required_budget(n)
    t0 = clock()
    sink, meter, stats = spt_mod.spt(poly, 1, s)
    wall = clock() - t0
    digest = hashlib.sha256(repr(sink.edges).encode()).hexdigest()[:16]
    return {"polygon": name, "n": n, "gen_seed": gen_seed, "s": s,
            "wall_s": wall, "links": links,
            "ms_per_link": {k: secs[k] * 1e3 / links[k] if links[k] else None
                            for k in KINDS},
            "scans": stats.scans, "rounds": stats.rounds,
            "peak_words": meter.peak_words,
            "level_peaks": list(meter.level_peaks), "edges_sha": digest}


def run(src: Path, name: str) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--worker", str(src), name],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def medians(rows) -> dict:
    head = rows[0]
    return {"wall_s": round(statistics.median(r["wall_s"] for r in rows), 3),
            "links": head["links"],
            "ms_per_link": {
                k: (round(statistics.median(r["ms_per_link"][k] for r in rows),
                          3) if head["ms_per_link"][k] is not None else None)
                for k in KINDS},
            "scans": head["scans"], "rounds": head["rounds"],
            "peak_words": head["peak_words"],
            "level_peaks": head["level_peaks"],
            "edges_sha": head["edges_sha"]}


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
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--worker", nargs=2, metavar=("SRC", "POLYGON"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(*args.worker)))
        return 0
    trees = {"change": ROOT / "src"}
    if args.parent is not None:
        trees = {"parent": args.parent / "src", **trees}
    results = []
    for name, kind, n, gen_seed in POLYGONS:
        rows = {tree: [] for tree in trees}
        for _ in range(args.reps):
            for tree, src in trees.items():
                rows[tree].append(run(src, name))
        entry = {"polygon": name, "n": n, "gen_seed": gen_seed,
                 "s": rows["change"][0]["s"]}
        for tree in trees:
            entry[tree] = medians(rows[tree])
        if "parent" in entry:
            for key in ("links", "scans", "rounds", "peak_words",
                        "level_peaks", "edges_sha"):
                if entry["parent"][key] != entry["change"][key]:
                    raise AssertionError(f"{name}: {key} differs from the "
                                         f"parent's")
        print(json.dumps(entry), flush=True)
        results.append(entry)
    out = {"what": "SPT from vertex 1 at the strict floor: first_link calls "
                   "and milliseconds per link by view kind (medians over "
                   "alternating fresh-process runs)",
           "seed": SEED, "reps": args.reps, "machine": machine(),
           "results": results}
    with open(ROOT / "BENCH_virtual.json", "w") as fh:
        fh.write(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
