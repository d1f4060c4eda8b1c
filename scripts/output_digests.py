"""Compares what two checkouts emit over a seeded corpus, run by run.

    python3 scripts/output_digests.py --against DIR [--src DIR]

--src (default: the checkout holding this script) and --against are
checkouts of two commits, e.g. one made with `git archive`.  Each runs the
corpus in its own subprocess, with its own src/ first on the import path,
and the two run side by side.  Per run the script compares the outputs in
emission order, the RunStats counters, the meter's peak and per-level
peaks, and, for a run that raises, the exception's type and message.  It
prints every run that differs, with the fields that differ, then one
line with the run count, the raises on each side and the differing runs,
and exits 1 if any run differs.

The corpus, all from generator seeds fixed here:
  * spt: comb, spiral, random and monotone polygons of 60 to 1000
    vertices; s = 8, 16 and 40 (permissive) and the strict floor
    8*ceil(log2 n); roots 1, n/3, n/2, 2n/3 and n, and at s = 16 and the
    strict floor also a lattice point inside the polygon and one inside an
    edge;
  * triangulate: the same polygons and budgets, diagonals in emission
    order, plus adjacency records at the strict floor;
  * partition: the same polygons at s = 8, 16 and 40, cuts and pieces.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from math import gcd
from pathlib import Path

from harness import ROOT, digest, finish, start

KINDS = ("comb", "spiral", "random", "monotone")
# (n, generator seeds): more seeds where runs are cheap
SIZES = ((60, (1, 2, 3, 4)), (130, (1, 2, 3)), (260, (1, 2, 3)),
         (500, (1, 2)), (1000, (1, 2)))
LOOSE_S = (8, 16, 40)


def _record(call):
    """What one run leaves: its outputs' digest, counters and peaks, or the
    exception it raised."""
    try:
        outputs, meter, stats = call()
    except Exception as exc:  # every failure is part of the record
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"outputs": digest(outputs),
            "stats": {k: getattr(stats, k) for k in type(stats).__slots__},
            "peak": meter.peak_words,
            "levels": list(meter.level_peaks)}


def _point_roots(poly, seed):
    """A lattice point inside `poly` off its boundary, drawn with generator
    `seed`, and the first lattice point inside an edge; each is left out
    when there is none (or the draw misses)."""
    from polyws import geom
    from polyws.workspace import SubpolygonView

    pts = poly.points()
    n = len(pts)
    edges = [(pts[k], pts[(k + 1) % n]) for k in range(n)]
    roots = []
    view = SubpolygonView.whole(poly)
    rng = random.Random(seed)
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    for _ in range(2000):
        p = (rng.randrange(min(xs), max(xs) + 1),
             rng.randrange(min(ys), max(ys) + 1))
        if geom.point_in_closed(view, p) and not any(
                geom.on_closed_segment(p, a, b) for a, b in edges):
            roots.append(p)
            break
    for (ax, ay), (bx, by) in edges:
        g = gcd(bx - ax, by - ay)
        if g > 1:
            roots.append((ax + (bx - ax) // g, ay + (by - ay) // g))
            break
    return roots


def _corpus():
    """(run id, thunk) for every run, in a fixed order."""
    from polyws.oracle import generate
    from polyws.partition import partition, piece_vertex_lists
    from polyws.spt import spt
    from polyws.triangulate import (AdjacencySink, required_budget,
                                    triangulate_polygon)
    from polyws.workspace import MeterMode

    strict, loose = MeterMode.STRICT, MeterMode.PERMISSIVE

    def run_spt(poly, root, s, mode, seed):
        sink, meter, stats = spt(poly, root, s, mode=mode, seed=seed)
        return sink.edges, meter, stats

    def run_tri(poly, s, mode, seed, sink=None):
        sink, meter, stats = triangulate_polygon(poly, s, sink=sink,
                                                 mode=mode, seed=seed)
        return (sink.diagonals, getattr(sink, "records", None)), meter, stats

    def run_part(poly, s, seed):
        pieces, cuts, meter, stats, maxima = partition(poly, s, seed=seed)
        return (cuts, piece_vertex_lists(pieces), maxima), meter, stats

    for kind in KINDS:
        for size, seeds in SIZES:
            for seed in seeds:
                poly = generate(kind, size, seed)
                n = poly.n
                floor = required_budget(n)
                budgets = [(s, loose) for s in LOOSE_S] + [(floor, strict)]
                tag = f"{kind}-{n}-g{seed}"
                points = _point_roots(poly, seed)
                for s, mode in budgets:
                    roots = sorted({1, n // 3, n // 2, 2 * n // 3, n})
                    if s in (16, floor):
                        roots += points
                    for root in roots:
                        rid = root if isinstance(root, int) else \
                            "{},{}".format(*root)
                        yield (f"spt/{tag}/s{s}/r{rid}",
                               lambda p=poly, r=root, s=s, md=mode, g=seed:
                               run_spt(p, r, s, md, g))
                    yield (f"tri/{tag}/s{s}",
                           lambda p=poly, s=s, md=mode, g=seed:
                           run_tri(p, s, md, g))
                yield (f"tri-adj/{tag}/s{floor}",
                       lambda p=poly, s=floor, g=seed:
                       run_tri(p, s, strict, g, AdjacencySink()))
                for s in LOOSE_S:
                    yield (f"part/{tag}/s{s}",
                           lambda p=poly, s=s, g=seed: run_part(p, s, g))


def worker(src: Path) -> None:
    """Run the corpus on the polyws under `src` and print the records as
    JSON."""
    import polyws
    where = Path(polyws.__file__).resolve().parent
    if where != (src / "polyws").resolve():
        sys.exit(f"output_digests: polyws imported from {where}")
    json.dump({rid: _record(call) for rid, call in _corpus()}, sys.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT,
                    help="checkout under test (default: this one)")
    ap.add_argument("--against", type=Path,
                    help="checkout to compare with")
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker is not None:
        worker(args.worker.resolve())
        return 0
    if args.against is None:
        ap.error("--against is required")
    procs = [start(__file__, p.resolve() / "src")
             for p in (args.src, args.against)]
    mine, theirs = results = [finish(proc) for proc in procs]
    differ = 0
    for rid in sorted(set(mine) | set(theirs)):
        a, b = mine.get(rid), theirs.get(rid)
        if a == b:
            continue
        differ += 1
        if a is None or b is None:
            print(f"{rid}: only in {'--against' if a is None else '--src'}")
            continue
        for field in sorted(set(a) | set(b)):
            if a.get(field) != b.get(field):
                print(f"{rid}: {field} {a.get(field)!r} != {b.get(field)!r}")
    errors, against = (sum(1 for r in res.values() if "error" in r)
                       for res in results)
    print(f"{len(mine)} runs ({errors} raise, {against} at --against), "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
