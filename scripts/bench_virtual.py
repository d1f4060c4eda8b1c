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

Runs are fresh processes, compared with --parent DIR (a checkout, e.g. made
with git archive) as scripts/harness.py says: sides alternate, times are
medians over --reps, and outputs, links and peaks must equal the parent's.
"""
from __future__ import annotations

import sys
import time

from harness import VIEW_KINDS, bench, digest, link_log, write_json

SEED = 1
# (name, kind, n, generation seed, root, s): the walk workload's comb 4000
# and a comb 8000 from the same generation seed at the strict floor (s
# None), and two spiral 500 runs at s = 16 in permissive mode
POLYGONS = (("comb-4000", "comb", 4000, SEED * 1000, 1, None),
            ("comb-8000", "comb", 8000, SEED * 1000, 1, None),
            ("spiral-500-g1", "spiral", 500, 1, 166, 16),
            ("spiral-500-g2", "spiral", 500, 2, 166, 16))


def worker(name: str) -> dict:
    """One SPT run of polygon `name`."""
    from polyws.spt import spt
    from polyws.triangulate import required_budget
    from polyws.workspace import MeterMode
    from workloads import general_polygon

    _, kind, n, gen_seed, root, s = next(p for p in POLYGONS if p[0] == name)
    poly = general_polygon(kind, n, gen_seed)
    mode = MeterMode.PERMISSIVE if s else MeterMode.STRICT
    s = s or required_budget(n)
    t0 = time.perf_counter()
    with link_log() as log:
        sink, meter, stats = spt(poly, root, s, mode=mode)
    wall = time.perf_counter() - t0
    links = {k: sum(r["view"] == k for r in log) for k in VIEW_KINDS}
    secs = {k: sum(r["secs"] for r in log if r["view"] == k)
            for k in VIEW_KINDS}
    return {"s": s, "mode": mode.value, "wall_s": wall, "links": links,
            "ms_per_link": {k: secs[k] * 1e3 / links[k] if links[k] else None
                            for k in VIEW_KINDS},
            "scans": stats.scans, "rounds": stats.rounds,
            "peak_words": meter.peak_words,
            "level_peaks": list(meter.level_peaks),
            "edges_sha": digest(sink.edges)}


def entry(case, got) -> dict:
    name, _, n, gen_seed, root, _ = next(p for p in POLYGONS
                                         if p[0] == case[0])
    head = {"polygon": name, "n": n, "gen_seed": gen_seed, "root": root,
            "s": got["change"]["s"], "mode": got["change"]["mode"]}
    return {**head, **{tree: {k: v for k, v in row.items() if k not in head}
                       for tree, row in got.items()}}


def main(argv=None) -> int:
    results, args = bench(argv, __file__, __doc__, 5, worker,
                          [p[:1] for p in POLYGONS], entry)
    write_json("BENCH_virtual.json",
               "SPT runs whose walks and constant-workspace passes hold "
               "views with virtual vertices: first_link calls and "
               "milliseconds per link by view kind (medians over "
               "alternating fresh-process runs)",
               seed=SEED, reps=args.reps, results=results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
