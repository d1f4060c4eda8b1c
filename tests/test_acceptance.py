"""Acceptance suite: every criterion at its stated tolerance, one reported
line each.  Headline asymptotic time bounds are not reproducible as numbers
at desk scale; acceptance is property-based plus measured structural scaling.
"""
import math
import random
import time

import numpy as np
import pytest

from conftest import cached_polygon, record_acceptance, separates
from polyws import geom
from polyws.geodesic import GeodesicCursor
from polyws.oracle import (ref_geodesic, ref_spt, validate_adjacency,
                           validate_partition, validate_triangulation)
from polyws.partition import partition, piece_vertex_lists
from polyws.spt import spt
from polyws.triangulate import (IN_MEMORY_FACTOR, AdjacencySink,
                                _in_memory_words, required_budget,
                                triangulate_polygon)
from polyws.workspace import (FRAME_WORDS, MeterMode, RunStats,
                              SubpolygonView, is_alternating)

FAR_SCAN_MAX = []   # far-case scan audit, fed by criteria 1 and 7


def _log_spaced(lo, hi, count):
    out = []
    for k in range(count):
        v = int(round(lo * (hi / lo) ** (k / (count - 1))))
        out.append(max(lo, min(hi, v)))
    return out


def _criterion1_grid():
    grid = []
    for seed in range(4):
        for n in _log_spaced(10, 320, 35):
            grid.append(("random", n, seed))
    for kind in ("convex", "comb", "spiral"):
        lo = 16 if kind == "spiral" else 10
        for seed in range(5):
            for n in _log_spaced(lo, 2000, 24):
                grid.append((kind, n, seed))
    return grid[:500]


def test_criterion_1_and_2_triangulation_validity_and_space_law():
    t0 = time.time()
    grid = _criterion1_grid()
    assert len(grid) == 500
    s_rules = [lambda n: required_budget(n),
               lambda n: math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1),
               lambda n: n]
    failures = []
    space_failures = []
    for idx, (kind, n, seed) in enumerate(grid):
        poly = cached_polygon(kind, n, seed)
        s = min(max(s_rules[idx % 3](n), 10), n) if idx % 3 != 2 else n
        stats = RunStats()
        sink, meter, stats = triangulate_polygon(
            poly, s, mode=MeterMode.PERMISSIVE, seed=seed, stats=stats)
        s_eff = min(s, n)
        rep = validate_triangulation(poly, sink.diagonals)
        if not rep.ok or len(sink.diagonals) != n - 3:
            failures.append((kind, n, seed, s, rep.errors[:2]))
            continue
        # criterion 2: the budget law and the per-level geometric envelope
        if meter.peak_words > 64 * s_eff or meter.overage_flag \
                or meter.current_words != 0:
            space_failures.append((kind, n, seed, s, meter.peak_words))
        for lvl, peak in enumerate(meter.level_peaks):
            if peak > 64 * s_eff * (0.9 ** lvl) + 64:
                space_failures.append((kind, n, seed, s, ("level", lvl, peak)))
        if stats.links and stats.rounds / stats.links > 4 * math.log2(n):
            failures.append((kind, n, seed, s, "round complexity"))
        FAR_SCAN_MAX.append(stats.far_scan_max)
    dt = time.time() - t0
    ok1 = not failures
    record_acceptance(
        f"ACCEPTANCE 1 triangulation-validity: {'PASS' if ok1 else 'FAIL'} "
        f"({500 - len(failures)}/500 valid, n in [10, 2000], {dt:.0f}s)")
    ok2 = not space_failures
    record_acceptance(
        f"ACCEPTANCE 2 space-law: {'PASS' if ok2 else 'FAIL'} "
        f"(peak <= 64*s and per-level <= 64*s*0.9^i + 64 on all runs; "
        f"{len(space_failures)} violations)")
    assert ok1, failures[:3]
    assert ok2, space_failures[:3]
    assert dt < 300, f"criterion 1 exceeded its five-minute budget ({dt:.0f}s)"


def test_criterion_3_and_4_geodesic_oracle_equality_and_rounds():
    t0 = time.time()
    mismatches = []
    round_failures = []
    ns = [16, 24, 36, 48, 64, 80]
    polys = []
    for seed in range(50):
        polys.append(("random", ns[seed % len(ns)], 100 + seed))
    for kind, n, seed in polys:
        poly = cached_polygon(kind, n, seed)
        view = SubpolygonView.whole(poly)
        stats = RunStats()
        rng = random.Random(seed)
        for q in range(1, n + 1):
            for t in range(1, n + 1):
                if q == t:
                    continue
                cur = GeodesicCursor(view, q, t, rng, stats)
                got = [q] + list(cur)
                if got != ref_geodesic(poly, q, t):
                    mismatches.append((n, seed, q, t))
        if stats.links and stats.rounds / stats.links > 4 * math.log2(n):
            round_failures.append((n, seed, stats.rounds / stats.links))
    # 200 sampled pairs at n <= 200
    sampled = 0
    for seed in range(4):
        n = 200
        poly = cached_polygon("random", n, 200 + seed)
        view = SubpolygonView.whole(poly)
        stats = RunStats()
        rng = random.Random(seed)
        picker = random.Random(77 + seed)
        for _ in range(50):
            q = picker.randrange(1, n + 1)
            t = picker.randrange(1, n + 1)
            if q == t:
                continue
            cur = GeodesicCursor(view, q, t, rng, stats)
            if [q] + list(cur) != ref_geodesic(poly, q, t):
                mismatches.append((n, seed, q, t))
            sampled += 1
        if stats.links and stats.rounds / stats.links > 4 * math.log2(n):
            round_failures.append((n, seed, stats.rounds / stats.links))
    dt = time.time() - t0
    ok3 = not mismatches
    record_acceptance(
        f"ACCEPTANCE 3 geodesic-oracle-equality: {'PASS' if ok3 else 'FAIL'} "
        f"(all pairs on 50 polygons n<=80 plus {sampled} pairs at n=200, "
        f"{dt:.0f}s)")
    ok4 = not round_failures
    record_acceptance(
        f"ACCEPTANCE 4 first-link-rounds: {'PASS' if ok4 else 'FAIL'} "
        f"(mean cone rounds per link <= 4*log2(n) on every polygon)")
    assert ok3, mismatches[:5]
    assert ok4, round_failures[:5]
    assert dt < 120, f"criterion 3 exceeded its two-minute budget ({dt:.0f}s)"


def _interior_lattice_point(poly, rng):
    view = SubpolygonView.whole(poly)
    xs = [p[0] for p in poly.points()]
    ys = [p[1] for p in poly.points()]
    for _ in range(500):
        cand = (rng.randrange(min(xs), max(xs) + 1),
                rng.randrange(min(ys), max(ys) + 1))
        if cand in poly.points():
            continue
        if not geom.point_in_closed(view, cand):
            continue
        on_edge = any(geom.on_closed_segment(
            cand, poly.vertex(k), poly.vertex(1 + k % poly.n))
            for k in range(1, poly.n + 1))
        if not on_edge:
            return cand
    return None


def _edge_interior_lattice_point(poly):
    for k in range(1, poly.n + 1):
        a = poly.vertex(k)
        b = poly.vertex(1 + k % poly.n)
        g = math.gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))
        if g >= 2:
            return (a[0] + (b[0] - a[0]) // g, a[1] + (b[1] - a[1]) // g)
    return None


def test_criterion_5_spt_oracle_equality():
    t0 = time.time()
    mismatches = []
    runs = 0
    small = [("random", 12 + (k % 7) * 8, 300 + k) for k in range(60)]
    for kind, n, seed in small:
        poly = cached_polygon(kind, n, seed)
        for root in range(1, n + 1):
            sink, meter, _ = spt(poly, root, 10, mode=MeterMode.PERMISSIVE,
                                 seed=seed)
            runs += 1
            if sink.edge_set() != ref_spt(poly, root):
                mismatches.append((kind, n, seed, root))
    larger = [("random", 80 + (k % 7) * 20, 400 + k) for k in range(40)]
    for kind, n, seed in larger:
        poly = cached_polygon(kind, n, seed)
        picker = random.Random(seed)
        for _ in range(10):
            root = picker.randrange(1, n + 1)
            sink, meter, _ = spt(poly, root, 12, mode=MeterMode.PERMISSIVE,
                                 seed=seed)
            runs += 1
            if sink.edge_set() != ref_spt(poly, root):
                mismatches.append((kind, n, seed, root))
    # 20 roots off the vertex set: interior and edge-interior points
    point_runs = 0
    rng = random.Random(5)
    k = 0
    while point_runs < 20 and k < 60:
        kind = ("random", "comb", "convex")[k % 3]
        n = 40 + (k % 5) * 12
        poly = cached_polygon(kind, n, 500 + k)
        k += 1
        pt = _interior_lattice_point(poly, rng) if point_runs % 2 == 0 \
            else _edge_interior_lattice_point(poly)
        if pt is None:
            continue
        sink, _, _ = spt(poly, pt, 12, mode=MeterMode.PERMISSIVE, seed=k)
        got = sink.edge_set()
        if got != ref_spt(poly, pt):
            mismatches.append((kind, n, 500 + k - 1, pt))
        for (a, b) in got:
            if not (0 <= a <= poly.n and 1 <= b <= poly.n):
                mismatches.append((kind, n, "bad-ref", (a, b)))
        point_runs += 1
    dt = time.time() - t0
    ok = not mismatches
    record_acceptance(
        f"ACCEPTANCE 5 spt-oracle-equality: {'PASS' if ok else 'FAIL'} "
        f"({runs} vertex roots + {point_runs} point roots, no virtual "
        f"vertices in output, {dt:.0f}s)")
    assert ok, mismatches[:5]
    assert point_runs == 20


def test_criterion_6_partition_bounds():
    t0 = time.time()
    failures = []
    grid = []
    for k in range(100):
        kind = ("convex", "comb", "spiral", "random")[k % 4]
        if kind == "random":
            n = 60 + (k % 9) * 38
        elif kind == "spiral":
            n = 60 + (k * 97) % 1940
        else:
            n = 60 + (k * 197) % 4940
        grid.append((kind, n, 600 + k))
    for idx, (kind, n, seed) in enumerate(grid):
        poly = cached_polygon(kind, n, seed)
        s = (4, math.isqrt(n), max(1, n // 10))[idx % 3]
        s = max(1, min(s, n))
        pieces, diagonals, meter, stats, round_maxima = partition(
            poly, s, mode=MeterMode.PERMISSIVE, seed=seed)
        rep = validate_partition(poly, diagonals,
                                 piece_vertex_lists(pieces), s)
        if not rep.ok:
            failures.append((kind, n, seed, s, rep.errors[:2]))
            continue
        envelope = float(n)
        t = max(-(-n // s), 3)
        for i, mx in enumerate(round_maxima, start=1):
            envelope = (5 / 6) * envelope + 2
            if mx > max(t + 2, envelope):
                failures.append((kind, n, seed, s, ("round", i, mx)))
                break
    dt = time.time() - t0
    ok = not failures
    record_acceptance(
        f"ACCEPTANCE 6 partition-bounds: {'PASS' if ok else 'FAIL'} "
        f"(100 runs, n in [60, 5000], sizes/counts/crossing/decay, {dt:.0f}s)")
    assert ok, failures[:5]


def _linear_fit(xs, ys):
    """Least-squares line through the points: (slope, R^2)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    return float(slope), 1.0 - ss_res / ss_tot


TRADEOFF = {}


@pytest.fixture(scope="module")
def tradeoff_runs():
    if TRADEOFF:
        return TRADEOFF
    n = 20000
    poly = cached_polygon("comb", n, 7)
    rows = []
    for s in (64, 256, 1024, 4096, -(-n // 10)):
        stats = RunStats()
        t0 = time.perf_counter()
        sink, meter, stats = triangulate_polygon(
            poly, s, mode=MeterMode.PERMISSIVE, seed=3, stats=stats,
            audit=False)
        ms = (time.perf_counter() - t0) * 1000
        rows.append({"s": s, "ms": ms, "peak": meter.peak_words,
                     "depth": stats.depth, "links": stats.links,
                     "diagonals": sink.diagonals})
        FAR_SCAN_MAX.append(stats.far_scan_max)
    # validate the most fragmented run's output once
    rep = validate_triangulation(poly, rows[0]["diagonals"])
    assert rep.ok, rep.errors[:3]
    for r in rows:
        assert len(r.pop("diagonals")) == n - 3
    TRADEOFF["rows"] = rows
    TRADEOFF["n"] = n
    TRADEOFF["poly"] = poly
    return TRADEOFF


def test_criterion_7a_peak_words_linear_in_s(tradeoff_runs):
    # The space bound is O(s) words, an upper bound.  A run that recurses
    # keeps per-level state that grows with s, so its peak is fitted against
    # s.  A run with IN_MEMORY_FACTOR * s >= n (the README's in-memory rule)
    # triangulates at the root: its peak is the base case's working arrays,
    # which depend on n alone, plus the root's frame and view descriptor.
    rows = tradeoff_runs["rows"]
    n = tradeoff_runs["n"]
    recursing = [r for r in rows if IN_MEMORY_FACTOR * r["s"] < n]
    in_memory = [r for r in rows if IN_MEMORY_FACTOR * r["s"] >= n]
    pts = [(r["s"], r["peak"]) for r in recursing]
    slope, r2 = _linear_fit([p[0] for p in pts], [p[1] for p in pts])
    root_words = FRAME_WORDS + SubpolygonView.whole(
        tradeoff_runs["poly"]).descriptor_words
    base_peak = _in_memory_words(n) + root_words
    mem_pts = [(r["s"], r["peak"]) for r in in_memory]
    ok_fit = len(recursing) >= 3 and r2 >= 0.95 \
        and all(r["depth"] >= 1 for r in recursing)
    ok_mem = bool(in_memory) and all(
        r["depth"] == 0 and r["peak"] == base_peak and r["peak"] <= 64 * r["s"]
        for r in in_memory)
    ok = ok_fit and ok_mem
    record_acceptance(
        f"ACCEPTANCE 7a peak-linear-in-s: {'PASS' if ok else 'FAIL'} "
        f"(recursing runs, {IN_MEMORY_FACTOR}*s < n: R^2 = {r2:.4f}, slope "
        f"{slope:.1f} words per unit of s, points = {pts}; in-memory runs, "
        f"{IN_MEMORY_FACTOR}*s >= n: peaks = {mem_pts}, expected "
        f"4n+16 base case + {root_words} root words = {base_peak})")
    assert ok_fit, (r2, pts, [r["depth"] for r in recursing])
    assert ok_mem, (mem_pts, base_peak, [r["depth"] for r in in_memory])


def test_criterion_7b_links_decrease(tradeoff_runs):
    rows = tradeoff_runs["rows"]
    by_s = sorted(rows, key=lambda r: r["s"])
    links = [r["links"] for r in by_s]
    nonincreasing = all(a >= b for a, b in zip(links, links[1:]))
    l64 = next(r["links"] for r in rows if r["s"] == 64)
    l4096 = next(r["links"] for r in rows if r["s"] == 4096)
    drop = (l64 - l4096) / l64 if l64 else 0.0
    ok = nonincreasing and drop >= 0.25
    record_acceptance(
        f"ACCEPTANCE 7b links-nonincreasing: {'PASS' if ok else 'FAIL'} "
        f"(links by s: {links}, drop 64->4096 = {drop:.0%})")
    assert ok


def test_criterion_7c_depth_nonincreasing(tradeoff_runs):
    rows = sorted(tradeoff_runs["rows"], key=lambda r: r["s"])
    depths = [r["depth"] for r in rows]
    ok = all(a >= b for a, b in zip(depths, depths[1:]))
    record_acceptance(
        f"ACCEPTANCE 7c depth-nonincreasing: {'PASS' if ok else 'FAIL'} "
        f"(depth by s: {depths})")
    assert ok


def test_criterion_7d_wall_time_tradeoff(tradeoff_runs):
    rows = tradeoff_runs["rows"]
    t64 = next(r["ms"] for r in rows if r["s"] == 64)
    tbig = next(r["ms"] for r in rows if r["s"] == 2000)
    ok = tbig < 0.5 * t64
    record_acceptance(
        f"ACCEPTANCE 7d wall-time-tradeoff: {'PASS' if ok else 'FAIL'} "
        f"(s=64: {t64:.0f}ms, s=n/10: {tbig:.0f}ms)")
    assert ok


def test_criterion_8_structural_audits():
    # separation iff alternating, exhaustively over every index triple
    for m in range(4, 61):
        mid = m // 2
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                if i in (1, mid) or j in (1, mid) or (j - i) % m in (1, m - 1):
                    continue
                assert separates(i, j, m) == is_alternating(i, j, m)
    # subproblem size bounds are asserted inline by the audited walks of
    # criterion 1; the far-case scan counter is collected from every run
    assert FAR_SCAN_MAX, "criteria 1 and 7 must run before this audit"
    worst = max(FAR_SCAN_MAX)
    ok = worst <= 3
    record_acceptance(
        f"ACCEPTANCE 8 structural-audits: {'PASS' if ok else 'FAIL'} "
        f"(separation==alternation exhaustive to m=60; piece bounds asserted "
        f"inline on every audited run; far-case scans <= 3, worst {worst})")
    assert ok


def test_criterion_9_adjacency_mode():
    t0 = time.time()
    failures = []
    for k in range(100):
        kind = ("random", "comb", "spiral", "convex")[k % 4]
        n = 40 + (k * 61) % 460
        if kind == "random":
            n = min(n, 320)
        if kind == "spiral":
            n = max(n, 16)
        poly = cached_polygon(kind, n, 700 + k)
        n = poly.n
        sink = AdjacencySink()
        s = max(12, n // 25)
        try:
            triangulate_polygon(poly, s, sink=sink,
                                mode=MeterMode.PERMISSIVE, seed=k)
            _check_adjacency(poly, sink)
        except AssertionError as exc:
            failures.append((kind, n, k, str(exc)[:60]))
    dt = time.time() - t0
    ok = not failures
    record_acceptance(
        f"ACCEPTANCE 9 adjacency-mode: {'PASS' if ok else 'FAIL'} "
        f"(100 polygons n<=500: triangle count, dual tree, single joined "
        f"records, reciprocity, {dt:.0f}s)")
    assert ok, failures[:5]


def _check_adjacency(poly, sink):
    n = poly.n
    recs = {tid: (corners, neigh) for tid, corners, neigh in sink.records}
    assert len(recs) == n - 2, f"triangle count {len(recs)} != {n - 2}"
    assert not sink.pending.half, "pending half-records left at finish"
    rep = validate_adjacency(poly, sink.records)
    assert rep.ok, rep.errors[:3]
    side_count = {}
    for corners, _neigh in recs.values():
        for k in range(3):
            u, v = corners[k], corners[(k + 1) % 3]
            key = (min(u, v), max(u, v))
            side_count[key] = side_count.get(key, 0) + 1
    internal = sum(x != 0 for _c, neigh in recs.values() for x in neigh)
    assert internal == 2 * (n - 3), "dual edge count"
    for key, cnt in side_count.items():
        expect = 1 if (key[1] - key[0]) % n in (1, n - 1) else 2
        assert cnt == expect, f"side {key} in {cnt} triangles"
    seen = set()
    stack = [next(iter(recs))]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        stack.extend(x for x in recs[t][1] if x != 0 and x not in seen)
    assert len(seen) == len(recs), "dual graph disconnected"
