"""Measures the cone search of each geodesic link with and without the
previous path vertex, and writes BENCH_cone.json at the repository root.

    PYTHONPATH=src python3 scripts/bench_cone.py

Inputs are the benchmark's walk polygons, comb 4000 and spiral 2000, and a
comb of 8000 vertices, made as perfbench/workloads.py makes them from seed 1.
On each, the top-level cursor walks from vertex 1 to m // 2.  For every link
first_link runs twice from the same vertex, once given the previous path
vertex (as the cursor calls it) and once without it, each with its own
generator; the two answers must be equal.  Each row records the view size,
the link, its ray shots and empty-cone checks (rounds), candidate scans and
milliseconds on both searches; each summary counts the links whose first ray
shot certified the answer (one round, no candidate scan), which given the
previous vertex is mostly the shot at the next reflex vertex along q's
boundary chain.  On a comb that top-level walk is a few links
long, so each polygon's triangulation entry also runs triangulate_polygon at
the strict floor budget, as the walk workload does: once as it is, once with
the previous vertex withheld from every link, and once with every cursor link
that has a previous vertex searched both ways and recorded as a row.  The
three runs must give the same diagonals.
"""
from __future__ import annotations

import json
import os
import platform
import random
import re
import statistics
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from polyws import geodesic                          # noqa: E402
from polyws.triangulate import (CollectingSink, required_budget,   # noqa: E402
                                triangulate_polygon)
from polyws.workspace import RunStats, SubpolygonView  # noqa: E402
from workloads import general_polygon                # noqa: E402

FIRST_LINK = geodesic.first_link

SEED = 1
# (name, kind, n, generation seed): the walk workload numbers its polygons
# seed * 1000 + 0, 1, ...; comb 8000 takes comb 4000's generation seed
POLYGONS = (("comb-4000", "comb", 4000, SEED * 1000),
            ("spiral-2000", "spiral", 2000, SEED * 1000 + 1),
            ("comb-8000", "comb", 8000, SEED * 1000))


def timed_link(view, q, t, rng, prev):
    """first_link's answer, rounds, scans and milliseconds for one link."""
    stats = RunStats()
    t0 = time.perf_counter()
    nxt = FIRST_LINK(view, q, t, rng, stats, prev=prev)
    ms = (time.perf_counter() - t0) * 1e3
    return nxt, stats.rounds, stats.scans, ms


COLUMNS = ("m", "q", "prev", "next", "rounds", "scans", "ms",
           "plain_rounds", "plain_scans", "plain_ms")


def paired_link(view, q, t, prev, narrowed, plain):
    """The link from q searched with prev and without it: the answer and its
    row; the answers must be equal."""
    nxt, rounds, scans, ms = timed_link(view, q, t, narrowed, prev)
    p_nxt, p_rounds, p_scans, p_ms = timed_link(view, q, t, plain, None)
    if nxt != p_nxt:
        raise AssertionError(f"link from {q} to {t} (m = {view.m}): {nxt} "
                             f"with prev {prev}, {p_nxt} without")
    return nxt, [view.m, q, prev, nxt, rounds, scans, round(ms, 3),
                 p_rounds, p_scans, round(p_ms, 3)]


def walk_rows(poly):
    """One row per link of the top-level walk from vertex 1 to m // 2."""
    view = SubpolygonView.whole(poly)
    t = view.m // 2
    narrowed, plain = random.Random(SEED), random.Random(SEED)
    rows = []
    prev, q = None, 1
    while q != t:
        nxt, row = paired_link(view, q, t, prev, narrowed, plain)
        rows.append(row)
        prev, q = q, nxt
    return rows


def summary(rows):
    """Per-column means and medians, and `first_shot`: the links certified
    by their first ray shot (one round, no candidate scan)."""
    rounds, scans = COLUMNS.index("rounds"), COLUMNS.index("scans")
    out = {"links": len(rows),
           "first_shot": sum(r[rounds] == 1 and r[scans] == 0 for r in rows)}
    for key in COLUMNS[4:]:
        vals = [r[COLUMNS.index(key)] for r in rows]
        out[key] = {"mean": round(statistics.fmean(vals), 3),
                    "median": round(statistics.median(vals), 3)}
    return out


def triangulate(poly, first_link):
    """triangulate_polygon at the strict floor budget, every cursor link
    going through `first_link`."""
    geodesic.first_link = first_link
    try:
        t0 = time.perf_counter()
        sink, meter, stats = triangulate_polygon(
            poly, required_budget(poly.n), sink=CollectingSink())
        wall = time.perf_counter() - t0
    finally:
        geodesic.first_link = FIRST_LINK
    return sink.diagonals, {
        "links": stats.links, "rounds": stats.rounds, "scans": stats.scans,
        "rounds_per_link": round(stats.rounds / stats.links, 3),
        "scans_per_link": round(stats.scans / stats.links, 3),
        "s": round(wall, 3), "peak_words": meter.peak_words}


def triangulation(poly):
    """Rounds per link and seconds of the triangulation with the cursor's
    previous vertex passed and withheld, and one row per cursor link that
    has a previous vertex, each searched both ways."""
    def without_prev(view, q, t, rng, stats=None, meter=None, prev=None):
        return FIRST_LINK(view, q, t, rng, stats, meter)

    rows = []
    plain = random.Random(SEED)

    def recorded(view, q, t, rng, stats=None, meter=None, prev=None):
        if prev is None:
            return FIRST_LINK(view, q, t, rng, stats, meter)
        nxt, row = paired_link(view, q, t, prev, rng, plain)
        rows.append(row)
        return nxt

    diagonals, with_prev = triangulate(poly, FIRST_LINK)
    plain_diagonals, plain_totals = triangulate(poly, without_prev)
    recorded_diagonals, _ = triangulate(poly, recorded)
    if not diagonals == plain_diagonals == recorded_diagonals:
        raise AssertionError("triangulations differ")
    return {"with_prev": with_prev, "without_prev": plain_totals,
            "cursor_links": summary(rows)}, rows


def machine() -> dict:
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


def main() -> int:
    walks, tris = [], []
    for name, kind, n, gen_seed in POLYGONS:
        poly = general_polygon(kind, n, gen_seed)
        head = {"polygon": name, "n": n, "gen_seed": gen_seed}
        rows = walk_rows(poly)
        walk = {**head, "target": n // 2, **summary(rows)}
        print(json.dumps(walk), flush=True)
        walks.append({**walk, "columns": COLUMNS, "rows": rows})
        tri, rows = triangulation(poly)
        tri = {**head, "s": required_budget(n), **tri}
        print(json.dumps(tri), flush=True)
        tris.append({**tri, "columns": COLUMNS, "rows": rows})
    out = {"what": "geodesic cone search per link: first_link given the "
                   "previous path vertex (narrowed start) against the same "
                   "link without it",
           "seed": SEED, "sample_k": geodesic.SAMPLE_K, "machine": machine(),
           "triangulation": tris, "walks": walks}
    # one line per link row
    text = re.sub(r"\[\n\s*([^][{}]*?)\n\s*\]",
                  lambda mt: "[" + re.sub(r"\s*\n\s*", " ", mt[1]) + "]",
                  json.dumps(out, indent=1))
    with open(ROOT / "BENCH_cone.json", "w") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
