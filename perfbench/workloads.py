"""Workload definitions: which polygons each workload generates from its seed,
and which jobs it runs on them through the public polyws API.

Jobs use library defaults (strict mode for triangulation and SPT, the
library's permissive mode for partition, L=64, kappa=0.9, no audit= argument)
unless the workload names a mode.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from polyws import cli, oracle
from polyws.partition import partition, piece_vertex_lists
from polyws.spt import spt
from polyws.triangulate import (AdjacencySink, CollectingSink,
                                required_budget, triangulate_polygon)
from polyws.workspace import MeterMode

Root = Union[int, Tuple[int, int]]


@dataclass
class PolySpec:
    name: str
    kind: str
    n: int
    gen_seed: int


@dataclass
class Job:
    name: str
    op: str                 # "tri" | "spt" | "part"
    poly: str
    s: int
    root: Optional[Root] = None
    mode: Optional[MeterMode] = None   # None: library default
    adjacency: bool = False            # tri: triangles with neighbor ids


@dataclass
class Workload:
    name: str
    polys: List[PolySpec]
    jobs: List[Job] = field(default_factory=list)


@dataclass
class JobResult:
    n: int
    wall: float
    peak_words: int
    budget_words: int
    level_peaks: List[int]
    stats: object
    output: dict            # what the CLI would write, see check.digest()
    pending_peak: int = 0
    rounds: int = 0         # partition rounds


# Polygon sizes.  walk keeps comb 4000: a comb 2000 SPT reached neither
# rational pieces nor the constant-workspace base case.  inmem stays
# at 6000/4000 so that a pass (mostly partition rounds) takes ~10 s and a run
# holds two of them; at 12000/8000 one pass alone takes ~30 s.  --smoke
# shrinks every polygon but keeps each regime (10 * s < n still walks).
SIZES = {
    "walk": {"comb": (4000,), "spiral": (2000,)},
    "inmem": {"comb": (6000,), "spiral": (4000,)},
    "small": {"random": (120, 160, 200), "monotone": (120, 200, 320),
              "comb": (120, 200, 320), "spiral": (120, 200, 320)},
}
SMOKE_SIZES = {
    "walk": {"comb": (1000,), "spiral": (900,)},
    "inmem": {"comb": (600,), "spiral": (400,)},
    "small": {"random": (40,), "monotone": (60,), "comb": (60,),
              "spiral": (60,)},
}
WALK_PARTITION_S = 64
SMALL_S = 16
SMALL_PARTITION_S = 8


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Polygon specs for a workload; jobs are added by attach_jobs() once the
    polygons exist, because the walk and inmem budgets depend on n."""
    sizes = (SMOKE_SIZES if smoke else SIZES)[name]
    polys = []
    for kind, ns in sizes.items():
        for n in ns:
            polys.append(PolySpec(f"{kind}-{n}", kind, n,
                                  seed * 1000 + len(polys)))
    return Workload(name, polys)


# oracle.generate retries with these seed steps until its polygon passes
# check_simple, whose general-position test stops at n = 2048
GEN_ATTEMPTS = 40
GEN_SEED_STEP = 1000003


def general_polygon(kind: str, n: int, seed: int):
    """oracle.generate's polygon, held to strict general position at every n.

    The program's inputs must be in strict general position, but neither
    oracle.generate nor cli.load_polygon tests it above n = 2048, and comb
    4000 has a collinear triple on some seeds (e.g. seed 1000: vertices 3887,
    3902, 3999).  Such a polygon is outside the program's input domain, so it
    is replaced the way oracle.generate replaces one for smaller n: by the
    polygon of the next attempt seed."""
    for attempt in range(GEN_ATTEMPTS):
        poly = oracle.generate(kind, n, seed + GEN_SEED_STEP * attempt)
        if n <= 2048 or oracle.check_simple(poly.points(), gp_limit=n).ok:
            return poly
    raise RuntimeError(f"no {kind} polygon n={n} in general position "
                       f"from seed {seed}")


def generate(wl: Workload, out_dir) -> Dict[str, str]:
    """Write every polygon of the workload as a .poly file; returns paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for p in wl.polys:
        poly = general_polygon(p.kind, p.n, p.gen_seed)
        path = out_dir / f"{p.name}.poly"
        cli.save_polygon(poly, str(path))
        paths[p.name] = str(path)
    return paths


def attach_jobs(wl: Workload, polys) -> None:
    """Fill wl.jobs from the loaded polygons (budgets depend on their n)."""
    jobs = []
    if wl.name in ("walk", "inmem"):
        for p in wl.polys:
            n = polys[p.name].n
            s = required_budget(n) if wl.name == "walk" else n
            s_part = WALK_PARTITION_S if wl.name == "walk" else n // 10
            jobs.append(Job(f"tri/{p.name}", "tri", p.name, s,
                            adjacency=p.kind == "spiral"))
            jobs.append(Job(f"spt/{p.name}", "spt", p.name, s, root=1))
            jobs.append(Job(f"part/{p.name}", "part", p.name, s_part))
    else:
        # SPT from vertex 1 only: other vertex roots and interior roots make
        # spt() raise or return wrong trees on a few inputs per hundred seeds
        # (defects.py), and a workload must not fail on any seed.
        perm = MeterMode.PERMISSIVE
        for p in wl.polys:
            jobs.append(Job(f"tri/{p.name}", "tri", p.name, SMALL_S,
                            mode=perm, adjacency=p.kind == "spiral"))
            jobs.append(Job(f"spt/{p.name}", "spt", p.name, SMALL_S,
                            root=1, mode=perm))
            jobs.append(Job(f"part/{p.name}", "part", p.name,
                            SMALL_PARTITION_S, mode=perm))
    wl.jobs = jobs


def run_job(job: Job, poly) -> JobResult:
    """One call into the public API, timed; the output is kept for checking."""
    kw = {} if job.mode is None else {"mode": job.mode}
    pending = rounds = 0
    if job.op == "tri":
        sink = AdjacencySink() if job.adjacency else CollectingSink()
        t0 = time.perf_counter()
        sink, meter, stats = triangulate_polygon(poly, job.s, sink=sink, **kw)
        wall = time.perf_counter() - t0
        output = {"diagonals": sink.diagonals}
        if job.adjacency:
            output["records"] = sink.records
            pending = sink.pending.peak
    elif job.op == "spt":
        t0 = time.perf_counter()
        sink, meter, stats = spt(poly, job.root, job.s, **kw)
        wall = time.perf_counter() - t0
        output = {"edges": sink.edges}
    else:
        t0 = time.perf_counter()
        pieces, diagonals, meter, stats, maxima = partition(poly, job.s, **kw)
        wall = time.perf_counter() - t0
        output = {"diagonals": diagonals, "pieces": piece_vertex_lists(pieces)}
        rounds = len(maxima)
    return JobResult(poly.n, wall, meter.peak_words, meter.budget_words,
                     list(meter.level_peaks), stats, output, pending, rounds)
