"""Measures balanced partition on perfbench's polygons, and writes
BENCH_partition.json at the repository root.

    PYTHONPATH=src python3 scripts/bench_partition.py [--reps 5]
        [--parent-rows FILE]

The cases are the partition jobs of perfbench/workloads.py at seed 1, each
with its own s and meter mode:
  walk   comb 4000 and spiral 2000 at s = 64;
  inmem  comb 6000 and spiral 4000 at s = n/10;
  small  the twelve polygons of n = 120 to 320 at s = 8, permissive.
Per polygon a row gives partition()'s wall time and milliseconds per vertex,
the pieces and their smallest and largest size, the rounds (round_maxima),
the ear clips run and the vertices they clipped, the meter peak and per-level
peaks, validate_partition's verdict and a digest of the cuts and piece rings.
A case's summary gives its vertices per second and the totals.

Runs are fresh processes, timed as scripts/harness.py says: times are medians
over --reps.  A change to partition changes its outputs and peaks, which the
harness's --parent comparison refuses, so the script runs in each checkout on
its own: --parent-rows FILE stores the rows of a BENCH_partition.json written
in the other checkout beside this checkout's, as the "parent" side.
"""
from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from harness import bench, digest, write_json

SEED = 1
CASES = ("walk", "inmem", "small")


@contextmanager
def clip_log():
    """The sizes of the views that ear_clip is called on while the block
    runs, through every binding partition reaches it by."""
    sizes = []
    owners = [importlib.import_module(f"polyws.{name}")
              for name in ("triangulate", "partition")]
    owners = [mod for mod in owners if hasattr(mod, "ear_clip")]
    clip = owners[0].ear_clip

    def counted(view, *args, **kw):
        sizes.append(view.m)
        return clip(view, *args, **kw)

    for mod in owners:
        mod.ear_clip = counted
    try:
        yield sizes
    finally:
        for mod in owners:
            mod.ear_clip = clip


def worker(case: str) -> list:
    """One case: a row per partition job."""
    from polyws import oracle
    from polyws.partition import partition, piece_vertex_lists
    import workloads

    wl = workloads.build(case, SEED)
    polys = {p.name: workloads.general_polygon(p.kind, p.n, p.gen_seed)
             for p in wl.polys}
    workloads.attach_jobs(wl, polys)
    rows = []
    for job in wl.jobs:
        if job.op != "part":
            continue
        poly = polys[job.poly]
        kw = {} if job.mode is None else {"mode": job.mode}
        with clip_log() as clips:
            t0 = time.perf_counter()
            pieces, cuts, meter, _stats, maxima = partition(poly, job.s, **kw)
            wall = time.perf_counter() - t0
        rings = piece_vertex_lists(pieces)
        rep = oracle.validate_partition(poly, cuts, rings, job.s)
        sizes = [len(r) for r in rings]
        rows.append({"run": job.poly, "n": poly.n, "s": job.s,
                     "wall_s": wall, "ms_per_vertex": wall * 1e3 / poly.n,
                     "pieces": len(pieces),
                     "piece_sizes": [min(sizes), max(sizes)],
                     "rounds": len(maxima), "clips": len(clips),
                     "clip_vertices": sum(clips),
                     "peak_words": meter.peak_words,
                     "level_peaks": list(meter.level_peaks),
                     "valid": "accepted" if rep.ok else rep.errors[:3],
                     "digest": digest((cuts, rings))})
    return rows


def summary(rows) -> dict:
    """A case's vertices per second over its summed median times, and its
    totals."""
    out = {"part_vps": round(sum(r["n"] for r in rows)
                             / sum(r["wall_s"] for r in rows))}
    for key in ("pieces", "rounds", "clips", "clip_vertices", "peak_words"):
        out[key] = sum(r[key] for r in rows)
    out["accepted"] = sum(r["valid"] == "accepted" for r in rows)
    return out


def entry(case, got) -> dict:
    return {"case": case[0], **{tree: {"summary": summary(rows), "runs": rows}
                                for tree, rows in got.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--parent-rows", type=Path)
    known, rest = ap.parse_known_args(argv)
    results, args = bench(rest, __file__, __doc__, 5, worker,
                          [(case,) for case in CASES], entry)
    fields = {}
    if known.parent_rows:
        prior = json.loads(known.parent_rows.read_text())
        by_case = {e["case"]: e["change"] for e in prior["results"]}
        results = [{"case": e["case"], "parent": by_case[e["case"]],
                    "change": e["change"]} for e in results]
        fields["parent_machine"] = prior["machine"]
    write_json("BENCH_partition.json",
               "balanced partition on perfbench's walk, inmem and small "
               "polygons: ms per vertex, pieces, sizes, rounds, ear clips, "
               "meter peaks and validate_partition's verdict (medians over "
               "fresh-process runs; each side run in its own checkout)",
               seed=SEED, reps=args.reps, **fields, results=results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
