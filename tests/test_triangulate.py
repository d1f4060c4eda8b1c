"""Triangulation: base case, far case, full recursion vs. the validator."""
import math
import random

import pytest

from polyws import geom
from polyws.errors import InternalInvariantError, PolygonInputError
from polyws.oracle import generate, validate_triangulation
from polyws.triangulate import (AdjacencySink, CollectingSink, ear_clip,
                                find_alternating_diagonal, required_budget,
                                triangulate_in_memory, triangulate_polygon)
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


def test_ear_clip_bulk_path_valid():
    poly = generate("comb", 402, 3)   # above the bulk cutoff
    view = SubpolygonView.whole(poly)
    sink = CollectingSink()
    triangulate_in_memory(view, sink)
    assert validate_triangulation(poly, sink.diagonals).ok


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


def test_kappa_range():
    # the per-level decay is configurable in (0.6, 1); the output contract
    # and the ledger balance hold across the range
    poly = generate("spiral", 300, 11)
    for kappa in (0.65, 0.75, 0.85, 0.95):
        sink, meter, stats = triangulate_polygon(
            poly, 14, mode=MeterMode.PERMISSIVE, seed=11, kappa=kappa)
        assert validate_triangulation(poly, sink.diagonals).ok, kappa
        assert meter.current_words == 0
    with pytest.raises(PolygonInputError):
        triangulate_polygon(poly, 14, mode=MeterMode.PERMISSIVE, kappa=0.5)


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
