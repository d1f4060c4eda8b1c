"""Measures the cone search of each geodesic link with and without the
previous path vertex, and writes BENCH_cone.json at the repository root.

    PYTHONPATH=src python3 scripts/bench_cone.py

Inputs are the benchmark's walk polygons, comb 4000 and spiral 2000, and a
comb of 8000 vertices, made as perfbench/workloads.py makes them from seed 1.
On each, the top-level cursor walks from vertex 1 to m // 2 twice, each time
with its own generator: once as it runs, giving first_link the previous path
vertex, and once with the previous vertex withheld from every link.  The
two walks' answers must be equal link by link.  Each row records the view
size, the link, its ray shots and empty-cone checks (rounds), candidate
scans and milliseconds in both walks (scripts/harness.py's link_log); each
summary counts the links whose first ray shot certified the answer (one
round, no candidate scan), which given the previous vertex is mostly the
shot at the next reflex vertex along q's boundary chain.  On a comb that
top-level walk is a few links long, so each polygon's triangulation entry
also runs triangulate_polygon at the strict floor budget, as the walk
workload does, in the same two ways.  The two runs must give the same
diagonals, and each cursor link that has a previous vertex is a row.
"""
from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from polyws import geodesic                          # noqa: E402
from polyws.geodesic import GeodesicCursor           # noqa: E402
from polyws.triangulate import (CollectingSink, required_budget,   # noqa: E402
                                triangulate_polygon)
from polyws.workspace import SubpolygonView          # noqa: E402
from workloads import general_polygon                # noqa: E402
from harness import link_log, write_json            # noqa: E402

SEED = 1
# (name, kind, n, generation seed): the walk workload numbers its polygons
# seed * 1000 + 0, 1, ...; comb 8000 takes comb 4000's generation seed
POLYGONS = (("comb-4000", "comb", 4000, SEED * 1000),
            ("spiral-2000", "spiral", 2000, SEED * 1000 + 1),
            ("comb-8000", "comb", 8000, SEED * 1000))
COLUMNS = ("m", "q", "prev", "next", "rounds", "scans", "ms",
           "plain_rounds", "plain_scans", "plain_ms")
LINK = ("m", "q", "t", "answer")


def without_prev(first_link, view, q, t, rng, stats, meter, prev, hints):
    return first_link(view, q, t, rng, stats, meter)


def both_ways(run):
    """run()'s result, seconds and cursor links, as it runs and with the
    previous vertex withheld."""
    out = []
    for answer in (None, without_prev):
        with link_log(answer) as log:
            t0 = time.perf_counter()
            got = run()
            out.append((got, time.perf_counter() - t0, log))
    return out


def paired(log, plain_log):
    """One row per link of the two runs' logs; the answers must be equal."""
    out = []
    for a, b in zip(log, plain_log, strict=True):
        if [a[k] for k in LINK] != [b[k] for k in LINK]:
            raise AssertionError(f"link {a} given prev, {b} without")
        out.append([a["m"], a["q"], a["prev"], a["answer"], a["rounds"],
                    a["scans"], round(a["secs"] * 1e3, 3), b["rounds"],
                    b["scans"], round(b["secs"] * 1e3, 3)])
    return out


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


def walk_rows(poly):
    """One row per link of the top-level walk from vertex 1 to m // 2."""
    view = SubpolygonView.whole(poly)
    (_, _, log), (_, _, plain) = both_ways(lambda: list(GeodesicCursor(
        view, 1, view.m // 2, random.Random(SEED))))
    return paired(log, plain)


def triangulation(poly):
    """Rounds per link and seconds of the triangulation with the cursor's
    previous vertex passed and withheld, and one row per cursor link that
    has a previous vertex."""
    runs = both_ways(lambda: triangulate_polygon(
        poly, required_budget(poly.n), sink=CollectingSink()))
    totals = [{"links": st.links, "rounds": st.rounds, "scans": st.scans,
               "rounds_per_link": round(st.rounds / st.links, 3),
               "scans_per_link": round(st.scans / st.links, 3),
               "s": round(wall, 3), "peak_words": meter.peak_words}
              for (_, meter, st), wall, _ in runs]
    if runs[0][0][0].diagonals != runs[1][0][0].diagonals:
        raise AssertionError("triangulations differ")
    linked = [r for r in paired(runs[0][2], runs[1][2]) if r[2] is not None]
    return {"with_prev": totals[0], "without_prev": totals[1],
            "cursor_links": summary(linked)}, linked


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
    write_json("BENCH_cone.json",
               "geodesic cone search per link: first_link given the "
               "previous path vertex (narrowed start) against the same "
               "link without it",
               seed=SEED, sample_k=geodesic.SAMPLE_K, triangulation=tris,
               walks=walks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
