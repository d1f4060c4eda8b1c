"""Triangulation: base case, far case, full recursion vs. the validator."""
import importlib
import math
import random

import pytest

from conftest import one_virtual_twins
from polyws import geom
from polyws.errors import InternalInvariantError, PolygonInputError
from polyws.oracle import generate, validate_triangulation
from polyws.triangulate import (AdjacencySink, CollectingSink, ear_clip,
                                ear_neighbors, find_alternating_diagonal,
                                required_budget, triangulate_in_memory,
                                triangulate_polygon)
from polyws.workspace import (BasePolygon, MeterMode, RunStats,
                              SubpolygonView, WorkspaceMeter)

SQUARE = [(0, 0), (0, 2), (2, 2), (2, 0)]


def test_ear_clip_triangle():
    poly = BasePolygon([(0, 0), (1, 4), (3, 0)])
    view = SubpolygonView.whole(poly)
    sink = CollectingSink()
    triangulate_in_memory(view, sink)
    assert sink.diagonals == []
    assert len(ear_clip(view)) == 1


def test_ear_clip_square():
    view = SubpolygonView.whole(BasePolygon(SQUARE))
    sink = CollectingSink()
    triangulate_in_memory(view, sink)
    assert len(sink.diagonals) == 1
    assert len(ear_clip(view)) == 2


def test_ear_clip_random_views_valid():
    for seed in range(12):
        n = 10 + 5 * seed
        poly = generate("random", n, seed)
        view = SubpolygonView.whole(poly)
        sink = CollectingSink()
        triangulate_in_memory(view, sink)
        rep = validate_triangulation(poly, sink.diagonals)
        assert rep.ok, (seed, rep.errors)


def _ear_clip_reference(view):
    """Brute-force ear clipping, the oracle for ear_clip: the same pop order,
    but each ear test scans every blocking (reflex or straight) vertex."""
    m = view.m
    if m == 3:
        return [(1, 2, 3)]
    pts = [None] + [view.point(i) for i in range(1, m + 1)]
    nxt = list(range(1, m + 2))
    prv = list(range(-1, m))
    nxt[m] = 1
    prv[1] = m
    dead = [False] * (m + 1)

    def turn(i):
        return geom.orient(pts[prv[i]], pts[i], pts[nxt[i]])

    reflexish = {i for i in range(1, m + 1)
                 if turn(i) != geom.CLOCKWISE}

    def is_ear(v):
        if v in reflexish:
            return False
        a, b, c = pts[prv[v]], pts[v], pts[nxt[v]]
        for x in reflexish:
            if x in (prv[v], nxt[v]):
                continue
            p = pts[x]
            if geom.orient(a, b, p) <= 0 and geom.orient(b, c, p) <= 0 \
                    and geom.orient(c, a, p) <= 0:
                return False
        return True

    out = []
    alive = m
    stack = list(range(m, 0, -1))
    alive_at_rescan = m + 1
    while alive > 3:
        if not stack:
            if alive == alive_at_rescan:
                raise InternalInvariantError("ear clipping stalled")
            alive_at_rescan = alive
            stack = [v for v in range(m, 0, -1) if not dead[v]]
        v = stack.pop()
        if dead[v] or not is_ear(v):
            continue
        p, n = prv[v], nxt[v]
        out.append((p, v, n))
        nxt[p] = n
        prv[n] = p
        dead[v] = True
        reflexish.discard(v)
        alive -= 1
        for u in (p, n):
            if turn(u) == geom.CLOCKWISE:
                reflexish.discard(u)
            else:
                reflexish.add(u)
            stack.append(u)
    v = next(i for i in range(1, m + 1) if not dead[i])
    out.append((prv[v], v, nxt[v]))
    return out


def test_ear_clip_matches_brute_force(monkeypatch):
    # 40 vertices hold fewer blocking vertices than the cutover, 300 more
    views = [SubpolygonView.whole(generate(kind, n, seed))
             for kind in ("random", "comb", "spiral", "monotone")
             for n, seed in ((40, 1), (300, 2))]
    comb = generate("comb", 402, 3)
    views.append(SubpolygonView.whole(comb))
    views.append(SubpolygonView.whole(BasePolygon(      # rotated by 90 degrees
        [(y, x) for x, y in reversed(comb.points())])))
    views.append(SubpolygonView.whole(BasePolygon(      # by 45 degrees
        [(x - y, x + y) for x, y in comb.points()])))
    # straight vertices on an ear's bounding box, on rings and their mirror
    # images; self-crossing rings, which the library's BasePolygon takes
    # unchecked, with a blocking vertex on an ear's edge, and with a convex
    # vertex that clipping turns reflex, so the index is rebuilt
    stars = [[(0, 4), (1, 4), (1, 5), (2, 5), (3, 5), (4, 4), (3, 3), (3, 2),
              (2, 2), (1, 0)],
             [(0, 3), (1, 3), (1, 5), (3, 3), (5, 3), (1, 0), (0, 0), (0, 1)],
             [(0, 4), (1, 4), (5, 4), (4, 2), (5, 1), (2, 0), (1, 0), (1, 1),
              (1, 2)]]
    rings = stars + [[(y, x) for x, y in reversed(r)] for r in stars] + [
        [(0, 1), (2, 3), (4, 1), (2, 4), (3, 2), (1, 2), (3, 0)],
        [(3, 0), (1, 3), (2, 0), (0, 3), (3, 5), (4, 2), (2, 2), (3, 3)]]
    views += [SubpolygonView.whole(BasePolygon(r)) for r in rings]
    # SPT pieces holding a virtual vertex with rational coordinates
    spt_mod = importlib.import_module("polyws.spt")
    clip = spt_mod.ear_clip

    def keep_rational(view, *args):
        if not view.all_int:
            views.append(view)
        return clip(view, *args)
    monkeypatch.setattr(spt_mod, "ear_clip", keep_rational)
    spt_mod.spt(generate("spiral", 160, 0), 1, 12, mode=MeterMode.PERMISSIVE)
    monkeypatch.undo()
    assert any(not v.all_int for v in views)
    tri_mod = importlib.import_module("polyws.triangulate")
    # one rational vertex with a large denominator, convex, straight or
    # reflex: the ring is clipped scaled by its common denominator
    for kind, seed in (("comb", 4), ("spiral", 5)):
        views += one_virtual_twins(
            SubpolygonView.whole(generate(kind, 300, seed)), seed)[0]
    # arrays for every candidate, two splits (one the measured), loop alone
    splits = (0, 5, tri_mod._EAR_LOOP_MAX, 10 ** 9)
    for view in views:
        expect = _ear_clip_reference(view)
        for loop_max in splits:
            monkeypatch.setattr(tri_mod, "_EAR_LOOP_MAX", loop_max)
            assert ear_clip(view) == expect, (view.m, loop_max)


def _side_pairing(tris):
    """The oracle for ear_neighbors: the triangles on each side, paired
    through a dict keyed by the side's two vertices; a side that only one
    triangle holds must be a view edge."""
    m = len(tris) + 2
    by_side = {}
    for t, (a, b, c) in enumerate(tris, 1):
        for k, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            by_side.setdefault((min(u, v), max(u, v)), []).append((t, k))
    rows = [[0, 0, 0] for _ in tris]
    for (u, v), held in by_side.items():
        if len(held) == 1:
            assert (v - u) % m in (1, m - 1), ("unpaired diagonal", u, v)
            continue
        (t, k), (o, j) = held
        rows[t - 1][k] = o
        rows[o - 1][j] = t
    return rows


def test_ear_neighbors_match_side_pairing():
    # ear clips of the five generator kinds from several start vertices,
    # and the views with one rational vertex that SPT pieces hold
    views = []
    for kind in ("random", "convex", "comb", "spiral", "monotone"):
        for n in (3, 4, 5, 8, 31, 200, 1000):
            poly = generate(kind, n, n)
            views += [SubpolygonView.whole(poly, start=k)
                      for k in sorted({1, 2, n // 3 + 1, n // 2 + 1, n})]
    for kind, seed in (("random", 1), ("comb", 4), ("spiral", 5)):
        views += one_virtual_twins(
            SubpolygonView.whole(generate(kind, 300, seed)), seed)[0]
    assert sum(not v.all_int for v in views) >= 15
    for view in views:
        tris = ear_clip(view)
        assert ear_neighbors(tris) == _side_pairing(tris), view.m
    # any clipping order of a ring, where every vertex is an ear: the last
    # triangle's third side is a diagonal too, which ear_clip's own pop
    # order has not been seen to make
    rng = random.Random(7)
    for m in (3, 4, 5, 9, 40):
        for _ in range(30):
            ring = list(range(1, m + 1))
            tris = []
            while True:
                i = rng.randrange(len(ring))
                tris.append((ring[i - 1], ring[i], ring[(i + 1) % len(ring)]))
                if len(ring) == 3:
                    break
                del ring[i]
            assert ear_neighbors(tris) == _side_pairing(tris), tris


class _Stop(Exception):
    pass


def _stopping(sink_cls, k):
    class Stopping(sink_cls):
        def emit_diagonal(self, a, b):
            super().emit_diagonal(a, b)
            if len(self.diagonals) == k:
                raise _Stop
    return Stopping()


def test_in_memory_stream_stops_at_raising_sink(monkeypatch):
    tri_mod = importlib.import_module("polyws.triangulate")
    clip = tri_mod.ear_clip
    ears = []

    def counting(view, on_ear):
        def count(p, v, n):
            ears.append((p, v, n))
            on_ear(p, v, n)
        return clip(view, count)
    monkeypatch.setattr(tri_mod, "ear_clip", counting)
    view = SubpolygonView.whole(generate("comb", 302, 4))
    for sink_cls in (CollectingSink, AdjacencySink):
        full = sink_cls()
        triangulate_in_memory(view, full)
        full_ears = list(ears)
        assert len(full.diagonals) == len(full_ears) == view.m - 3
        if sink_cls is AdjacencySink:
            assert len(full.records) == view.m - 2
        for k in (1, 17, view.m // 2, view.m - 3):
            ears.clear()
            sink = _stopping(sink_cls, k)
            with pytest.raises(_Stop):
                triangulate_in_memory(view, sink)
            assert sink.diagonals == full.diagonals[:k]
            assert ears == full_ears[:k]
            if sink_cls is AdjacencySink:
                assert sink.records == []
        ears.clear()


def test_square_any_tau():
    poly = BasePolygon(SQUARE)
    sink, meter, stats = triangulate_polygon(poly, 4, mode=MeterMode.PERMISSIVE)
    assert len(sink.diagonals) == 1
    rep = validate_triangulation(poly, sink.diagonals)
    assert rep.ok


def test_convex_ten_gon():
    poly = generate("convex", 10, 7)
    sink, _, _ = triangulate_polygon(poly, 10, mode=MeterMode.PERMISSIVE)
    assert len(sink.diagonals) == 7
    assert validate_triangulation(poly, sink.diagonals).ok


def test_strict_budget_precondition():
    poly = generate("comb", 402, 1)   # 10*s < n and s below 8*ceil(log2 n)
    with pytest.raises(PolygonInputError):
        triangulate_polygon(poly, 12, mode=MeterMode.STRICT)


def test_recursive_runs_random_kinds():
    rng = random.Random(0)
    for kind in ("random", "comb", "spiral", "monotone", "convex"):
        for n in (30, 80, 150, 240):
            seed = rng.randrange(1000)
            poly = generate(kind, n, seed)
            s = required_budget(n)
            sink, meter, stats = triangulate_polygon(poly, s, seed=seed)
            rep = validate_triangulation(poly, sink.diagonals)
            assert rep.ok, (kind, n, seed, rep.errors[:3])
            assert len(sink.diagonals) == n - 3
            assert meter.peak_words <= meter.budget_words
            assert meter.current_words == 0


def test_far_case_triggers_and_counts_scans():
    # spirals force long same-type runs; small tau forces the far search
    hit = 0
    for seed in range(6):
        poly = generate("spiral", 200, seed)
        stats = RunStats()
        sink, meter, stats = triangulate_polygon(
            poly, 16, mode=MeterMode.PERMISSIVE, seed=seed, stats=stats)
        assert validate_triangulation(poly, sink.diagonals).ok
        if stats.far_calls:
            hit += 1
            assert stats.far_scan_max <= 3
    assert hit > 0, "no far case was ever triggered"


def test_find_alternating_diagonal_postconditions():
    # engineered invocations on combs and spirals with tiny tau
    from polyws.geodesic import GeodesicCursor
    from polyws.workspace import is_alternating
    checked = 0
    for kind, tau in [("spiral", 4), ("comb", 4), ("spiral", 8), ("comb", 8)]:
        for seed in range(8):
            poly = generate(kind, 120, seed)
            view = SubpolygonView.whole(poly)
            m = view.m
            cur = GeodesicCursor(view, 1, m // 2, random.Random(seed))
            w = [1]
            for v in cur:
                w.append(v)
                if len(w) >= 2 and is_alternating(w[-2], w[-1], m):
                    w = [w[-1]]
                    continue
                if len(w) == tau + 1:
                    u = find_alternating_diagonal(view, None, w)
                    assert is_alternating(u, w[-1], m)
                    assert geom.is_visible(view, w[-1], u)
                    checked += 1
                    break
    assert checked >= 8


def test_no_duplicate_emissions():
    for seed in range(5):
        poly = generate("spiral", 150, seed)
        sink, _, _ = triangulate_polygon(poly, 16, mode=MeterMode.PERMISSIVE,
                                         seed=seed)
        assert len(set(sink.diagonals)) == len(sink.diagonals)


def test_recursion_depth_bound():
    for seed in range(3):
        n = 500
        poly = generate("comb", n, seed)
        stats = RunStats()
        triangulate_polygon(poly, required_budget(n), seed=seed, stats=stats)
        assert stats.depth <= math.ceil(math.log(n, 5 / 3)) + 2


def test_adjacency_mode_square():
    poly = BasePolygon(SQUARE)
    sink = AdjacencySink()
    triangulate_polygon(poly, 4, sink=sink, mode=MeterMode.PERMISSIVE)
    assert len(sink.records) == 2
    (t1, c1, n1), (t2, c2, n2) = sink.records
    assert n1.count(0) == 2 and n2.count(0) == 2
    assert t2 in n1 and t1 in n2


def test_adjacency_mode_recursive():
    for seed in range(4):
        n = 120
        poly = generate("random", n, seed)
        sink = AdjacencySink()
        triangulate_polygon(poly, 24, sink=sink, mode=MeterMode.PERMISSIVE,
                            seed=seed)
        assert len(sink.records) == n - 2
        _check_adjacency_consistency(poly, sink)


def test_adjacency_mode_strict_budget():
    # recursion with a compliant budget in strict mode: the pending table and
    # buffered records must fit the ledger alongside the walk state
    poly = generate("comb", 1000, 9)
    sink = AdjacencySink()
    stats = RunStats()
    meter = None
    sink, meter, stats = triangulate_polygon(
        poly, 80, sink=sink, mode=MeterMode.STRICT, seed=9, stats=stats)
    assert len(sink.records) == 998
    assert meter.peak_words <= meter.budget_words
    assert meter.current_words == 0
    assert stats.depth >= 1
    _check_adjacency_consistency(poly, sink)


def test_strict_partition_budget():
    from polyws.partition import partition, piece_vertex_lists
    from polyws.oracle import validate_partition
    poly = generate("spiral", 2000, 4)
    pieces, diagonals, meter, stats, _ = partition(
        poly, 88, mode=MeterMode.STRICT, seed=2)
    assert validate_partition(poly, diagonals,
                              piece_vertex_lists(pieces), 88).ok
    assert meter.peak_words <= meter.budget_words
    assert meter.current_words == 0


def test_walk_error_surfaces_and_unwinds_meter(monkeypatch):
    # an exception raised mid-walk reaches the caller unchanged, and the
    # meter holds no words afterwards
    from polyws.geodesic import GeodesicCursor
    from polyws.spt import spt
    next_vertex = GeodesicCursor.next_vertex
    calls = []

    def failing(cursor):
        calls.append(cursor)
        if len(calls) == 5:
            raise InternalInvariantError("cursor failed mid-walk")
        return next_vertex(cursor)

    monkeypatch.setattr(GeodesicCursor, "next_vertex", failing)
    poly = generate("spiral", 300, 10)
    perm = MeterMode.PERMISSIVE
    for solve in (lambda m: triangulate_polygon(poly, 16, mode=perm, meter=m),
                  lambda m: spt(poly, 1, 16, mode=perm, meter=m)):
        calls.clear()
        meter = WorkspaceMeter(64 * 16, perm)
        with pytest.raises(InternalInvariantError,
                           match="cursor failed mid-walk"):
            solve(meter)
        assert meter.current_words == 0


def test_fuzz_all_kinds_triangulate_and_spt():
    from polyws.oracle import ref_spt
    from polyws.spt import spt
    rng = random.Random(123)
    for trial in range(24):
        kind = ("random", "convex", "comb", "spiral", "monotone")[trial % 5]
        n = rng.choice([24, 61, 133, 210])
        seed = 900 + trial
        poly = generate(kind, n, seed)
        n = poly.n
        s = rng.choice([10, 14, 22, max(10, n // 6)])
        sink, meter, _ = triangulate_polygon(
            poly, s, mode=MeterMode.PERMISSIVE, seed=seed)
        assert validate_triangulation(poly, sink.diagonals).ok, (kind, n, seed)
        assert meter.current_words == 0
        root = rng.randrange(1, n + 1)
        tsink, tmeter, _ = spt(poly, root, s, mode=MeterMode.PERMISSIVE,
                               seed=seed)
        assert tsink.edge_set() == ref_spt(poly, root), (kind, n, seed, root)
        assert tmeter.current_words == 0


def _check_adjacency_consistency(poly, sink):
    """The dual graph must be a tree over the records, neighbor references
    reciprocal, each diagonal shared by exactly two triangles, polygon edges
    by exactly one."""
    n = poly.n
    recs = {tid: (corners, neigh) for tid, corners, neigh in sink.records}
    side_count = {}
    internal = 0
    for tid, (corners, neigh) in recs.items():
        for k in range(3):
            u, v = corners[k], corners[(k + 1) % 3]
            key = (min(u, v), max(u, v))
            side_count[key] = side_count.get(key, 0) + 1
            other = neigh[k]
            if other == 0:
                assert (v - u) % n in (1, n - 1), f"boundary side {key} not an edge"
            else:
                internal += 1
                oc, on = recs[other]
                slot = None
                for j in range(3):
                    ku = (min(oc[j], oc[(j + 1) % 3]), max(oc[j], oc[(j + 1) % 3]))
                    if ku == key:
                        slot = j
                assert slot is not None and on[slot] == tid, "non-reciprocal"
    assert internal == 2 * (n - 3)
    for key, cnt in side_count.items():
        if (key[1] - key[0]) % n in (1, n - 1):
            assert cnt == 1, f"edge {key} in {cnt} triangles"
        else:
            assert cnt == 2, f"diagonal {key} in {cnt} triangles"
    # connectivity: n-2 nodes, n-3 internal dual edges, reciprocal => tree
    seen = set()
    stack = [next(iter(recs))]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        stack.extend(x for x in recs[t][1] if x != 0 and x not in seen)
    assert len(seen) == len(recs)
