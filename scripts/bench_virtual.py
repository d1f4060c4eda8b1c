"""Measures SPT's geodesic links by the kind of view they run on, and writes
BENCH_virtual.json at the repository root.

    PYTHONPATH=src python3 scripts/bench_virtual.py [--parent DIR] [--reps 5]

SPT's far case splits a piece at the extension of its last walked edge, which
makes a virtual vertex with rational coordinates.  This script runs spt() and
times every first_link call (the cursor's and the constant-workspace pass's):
from vertex 1 at the strict floor budget s = 8*ceil(log2 n) on comb 4000 and
comb 8000, made as perfbench/workloads.py makes them from seed 1; and from
vertex 166 at s = 16 (permissive) on spiral 500 from generator seeds 1 and 2,
the runs of scripts/output_digests.py's corpus whose constant-workspace
passes hold views with two virtual vertices.  Each call is filed by its view,
by the view's own count of vertices whose coordinates are not integers:
"integer" (none), "one_rational" (one) or "multi_rational" (two or more).  A
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
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_machine import machine

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# (name, kind, n, generation seed, root, s): the walk workload's comb 4000
# and a comb 8000 from the same generation seed at the strict floor (s
# None), and two spiral 500 runs at s = 16 in permissive mode
POLYGONS = (("comb-4000", "comb", 4000, SEED * 1000, 1, None),
            ("comb-8000", "comb", 8000, SEED * 1000, 1, None),
            ("spiral-500-g1", "spiral", 500, 1, 166, 16),
            ("spiral-500-g2", "spiral", 500, 2, 166, 16))
KINDS = ("integer", "one_rational", "multi_rational")


def view_kind(view) -> str:
    """The view's class by how many of its vertices are not integer points,
    as the view counts them (rational_slots; a checkout from before that
    attribute has all_int, and rational_slot for exactly one)."""
    if hasattr(view, "rational_slots"):
        return KINDS[min(len(view.rational_slots), 2)]
    return KINDS[0 if view.all_int else 1 if view.rational_slot is not None
                 else 2]


def worker(src: str, name: str) -> dict:
    """One SPT run of polygon `name` against the polyws under `src`."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import importlib

    from polyws import geodesic
    from polyws.triangulate import required_budget
    from polyws.workspace import MeterMode
    from workloads import general_polygon

    spt_mod = importlib.import_module("polyws.spt")
    _, kind, n, gen_seed, root, s = next(p for p in POLYGONS if p[0] == name)
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
    mode = MeterMode.PERMISSIVE if s else MeterMode.STRICT
    s = s or required_budget(n)
    t0 = clock()
    sink, meter, stats = spt_mod.spt(poly, root, s, mode=mode)
    wall = clock() - t0
    digest = hashlib.sha256(repr(sink.edges).encode()).hexdigest()[:16]
    return {"polygon": name, "n": n, "gen_seed": gen_seed, "root": root,
            "s": s, "mode": mode.value,
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
    for name, kind, n, gen_seed, root, _ in POLYGONS:
        rows = {tree: [] for tree in trees}
        for _ in range(args.reps):
            for tree, src in trees.items():
                rows[tree].append(run(src, name))
        first = rows["change"][0]
        entry = {"polygon": name, "n": n, "gen_seed": gen_seed, "root": root,
                 "s": first["s"], "mode": first["mode"]}
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
    out = {"what": "SPT runs whose walks and constant-workspace passes hold "
                   "views with virtual vertices: first_link calls and "
                   "milliseconds per link by view kind (medians over "
                   "alternating fresh-process runs)",
           "seed": SEED, "reps": args.reps, "machine": machine(),
           "results": results}
    with open(ROOT / "BENCH_virtual.json", "w") as fh:
        fh.write(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
