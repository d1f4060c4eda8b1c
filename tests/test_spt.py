"""Shortest-path trees: base cases, recursion, roots off the vertex set."""
import random
from fractions import Fraction

import pytest

from polyws.errors import PolygonInputError
from polyws.oracle import generate, ref_spt
from polyws.spt import (CollectingSptSink, _Region, funnel_parents, spt,
                        spt_constant_workspace, spt_in_memory)
from polyws.workspace import (BasePolygon, MeterMode, RunStats,
                              SubpolygonView)

SQUARE = [(0, 0), (0, 2), (2, 2), (2, 0)]
LPOLY = [(0, 0), (0, 3), (1, 3), (1, 1), (3, 1), (3, 0)]


def run_spt(poly, p, s, **kw):
    kw.setdefault("mode", MeterMode.PERMISSIVE)
    sink, meter, stats = spt(poly, p, s, **kw)
    return sink.edge_set(), meter, stats


def test_square_fan():
    poly = BasePolygon(SQUARE)
    edges, _, _ = run_spt(poly, 1, 4)
    assert edges == {(1, 2), (1, 3), (1, 4)}


def test_lpolygon_from_v2():
    poly = BasePolygon(LPOLY)
    edges, _, _ = run_spt(poly, 2, 6)
    assert edges == {(2, 1), (2, 3), (2, 4), (4, 5), (4, 6)}


def test_triangle_base():
    poly = BasePolygon([(0, 0), (1, 5), (3, 0)])
    sink = CollectingSptSink()
    view = SubpolygonView.whole(poly)
    spt_in_memory(view, 1, sink)
    assert sink.edge_set() == {(1, 2), (1, 3)}


def _both_base_cases(view, root, seed):
    """The edge lists of the funnel and of the constant-workspace pass."""
    s1 = CollectingSptSink()
    s2 = CollectingSptSink()
    spt_in_memory(view, root, s1)
    spt_constant_workspace(view, root, s2, rng=random.Random(seed))
    return s1.edges, s2.edges


def _spt_pieces(monkeypatch, kind, n, seed, s):
    """Every piece an SPT run from vertex 1 hands to its base case."""
    pieces = []
    base = _Region.base

    def record(view, run):
        pieces.append(view)
        base(view, run)

    with monkeypatch.context() as mp:
        mp.setattr(_Region, "base", staticmethod(record))
        run_spt(generate(kind, n, seed), 1, s, seed=seed)
    return pieces


def test_constant_workspace_matches_in_memory(monkeypatch):
    # whole polygons of four kinds from three roots; then views holding cut
    # items and a convex virtual vertex, at several roots, and the pieces
    # with a virtual vertex that SPT runs hand to their base case, from
    # their root; both base cases emit in ascending child order
    from conftest import one_virtual_twins
    for seed in range(10):
        n = 20 + 12 * seed
        for kind in ("random", "comb", "spiral", "monotone"):
            view = SubpolygonView.whole(generate(kind, n, seed))
            for root in (1, -(-n // 3), -(-n // 2)):
                funnel, const = _both_base_cases(view, root, seed)
                assert funnel == const, (kind, n, root)
    virtual = 0
    for n, seed in [(60, 1), (90, 2)]:
        v = SubpolygonView.whole(generate("random", n, seed))
        for w in one_virtual_twins(v, seed, n // 2)[0][:3]:
            h = w.rational_slots[0] + 1
            for root in (1, -(-w.m // 3), -(-w.m // 2), 1 + h % w.m):
                if root != h:
                    funnel, const = _both_base_cases(w, root, seed)
                    assert funnel == const, (n, w.m, root)
                    virtual += 1
    for n, s in [(200, 12), (260, 11)]:
        for w in _spt_pieces(monkeypatch, "spiral", n, 3, s):
            if not w.all_int:
                funnel, const = _both_base_cases(w, 1, w.m)
                assert funnel == const, (n, w.m)
                virtual += 1
    assert virtual > 40


def test_hinted_constant_workspace_takes_fewer_rounds():
    # the pass against its own loop replayed with unhinted first links on
    # comb 1000: the same parents from fewer rounds; a pass that stops
    # passing its hints fails this
    from polyws.geodesic import first_link
    view = SubpolygonView.whole(generate("comb", 1000, 1))
    hinted, plain = RunStats(), RunStats()
    sink = CollectingSptSink()
    spt_constant_workspace(view, 1, sink, rng=random.Random(5), stats=hinted)
    link_rng = random.Random(random.Random(5).getrandbits(64))
    replay = [(first_link(view, q, 1, link_rng, plain), q)
              for q in range(2, 1001)]
    assert sink.edges == replay
    assert hinted.rounds < plain.rounds, (hinted.rounds, plain.rounds)


def test_funnel_matches_oracle():
    for kind, seed in [("random", 0), ("random", 5), ("spiral", 1),
                       ("comb", 2), ("monotone", 3)]:
        poly = generate(kind, 60, seed)
        parent = funnel_parents(SubpolygonView.whole(poly), 1)
        edges = {(parent[q], q) for q in range(2, 61)}
        assert edges == ref_spt(poly, 1), (kind, seed)


def test_recursive_spt_matches_oracle_small_budget():
    for kind in ("random", "spiral", "comb"):
        for seed in range(4):
            n = 120
            poly = generate(kind, n, seed)
            expect = ref_spt(poly, 1)
            edges, meter, stats = run_spt(poly, 1, 12, seed=seed)
            assert edges == expect, (kind, seed, len(edges), len(expect))
            assert meter.current_words == 0


def test_recursive_spt_all_roots_small():
    for seed in range(3):
        n = 40
        poly = generate("random", n, seed)
        for root in range(1, n + 1):
            expect = ref_spt(poly, root)
            edges, _, _ = run_spt(poly, root, 8, seed=seed)
            assert edges == expect, (seed, root)


def test_comb_forty_two():
    poly = generate("comb", 42, 4)
    expect = ref_spt(poly, 1)
    edges, _, stats = run_spt(poly, 1, 16, seed=9)
    assert edges == expect


def test_virtual_vertices_never_emitted():
    # deep spirals with tiny budgets force the edge-extension far case;
    # all emitted references must be real vertex indices
    hit = 0
    for seed in range(6):
        poly = generate("spiral", 160, seed)
        stats = RunStats()
        edges, _, stats = run_spt(poly, 1, 12, seed=seed, stats=stats)
        n = poly.n
        for (a, b) in edges:
            assert 1 <= a <= n and 1 <= b <= n
        assert edges == ref_spt(poly, 1), seed
        hit += stats.far_calls
    assert hit > 0, "the far case never triggered"


def test_interior_root():
    # an integer point, also given as Fractions of denominator 1
    poly = BasePolygon(SQUARE)
    edges, _, _ = run_spt(poly, (1, 1), 4)
    assert edges == ref_spt(poly, (1, 1))
    assert run_spt(poly, (Fraction(1), Fraction(1)), 4)[0] == edges


def test_edge_interior_root():
    poly = BasePolygon(LPOLY)
    edges, _, _ = run_spt(poly, (0, 2), 6)   # on the left wall
    assert edges == ref_spt(poly, (0, 2))


# interior roots (kind, n, generator seed, point) whose upward or downward
# vertical ray first crosses the closing edge (n, 1); the four combs of 200
# and 320 vertices gave wrong trees or raised when that ray missed the edge
CLOSING_EDGE_ROOTS = [("random", 60, 0, (47478, 21713)),
                      ("random", 60, 4, (12123, 17506)),
                      ("random", 60, 8, (48156, 18262)),
                      ("spiral", 60, 33, (46688, 394)),
                      ("random", 60, 3, (39944, 5156)),
                      ("comb", 60, 1, (29, 2197)),
                      ("monotone", 60, 13, (22, 14169)),
                      ("comb", 320, 1008, (160, -8868)),
                      ("comb", 200, 3007, (124, -3323)),
                      ("comb", 200, 11007, (164, -4326)),
                      ("comb", 320, 61008, (161, 10758))]


def test_point_roots_random():
    rng = random.Random(3)
    for seed in range(6):
        poly = generate("random", 40, seed)
        view = SubpolygonView.whole(poly)
        # centroid-ish interior probe, snapped to an interior lattice point
        from polyws import geom
        xs = [p[0] for p in poly.points()]
        ys = [p[1] for p in poly.points()]
        found = None
        for _ in range(400):
            cand = (rng.randrange(min(xs), max(xs) + 1),
                    rng.randrange(min(ys), max(ys) + 1))
            if cand not in poly.points() and geom.point_in_closed(view, cand):
                on_b = any(geom.on_closed_segment(
                    cand, poly.vertex(k), poly.vertex(1 + k % poly.n))
                    for k in range(1, poly.n + 1))
                if not on_b:
                    found = cand
                    break
        if found is None:
            continue
        edges, _, _ = run_spt(poly, found, 10, seed=seed)
        assert edges == ref_spt(poly, found), (seed, found)
    for kind, n, seed, p in CLOSING_EDGE_ROOTS:
        poly = generate(kind, n, seed)
        edges, _, _ = run_spt(poly, p, 16)
        assert edges == ref_spt(poly, p), (kind, n, seed, p)


# (kind, n, generator seed, s, root) whose far splits put virtual vertices
# on the closing structure.  For roots 249 and 86 the edge extension lands on
# the sub-edge between the region's old virtual vertex and the end of its
# arc, twice at the low end and twice at the high end.  At roots n/2 of combs
# 260 and 500, R's ring holds the new virtual vertex besides the walked
# vertices and one half of the view, one more than a split bound that did
# not count virtual vertices allowed.
CLOSING_HITS = [("comb", 260, 2001, 13, 249), ("comb", 260, 1, 16, 86),
                ("comb", 260, 1, 16, 130), ("comb", 500, 1, 40, 250)]


def test_far_split_landing_on_the_closing_structure():
    # regression: the edge extension can legally end on the region's closing
    # sub-edge, between the previous virtual vertex and the region end (both
    # virtuals then share one original edge); the split must keep the region
    # representable, its audited size bounds must count virtual vertices, and
    # the emitted tree must be exact
    for kind, n, seed, s, root in CLOSING_HITS:
        poly = generate(kind, n, seed)
        edges, meter, stats = run_spt(poly, root, s, seed=seed, audit=True)
        assert edges == ref_spt(poly, root), (kind, n, seed, root)
        assert stats.far_calls >= 2
        assert meter.current_words == 0


def test_split_bound_counts_the_virtual_vertex():
    # regression: one far split whose virtual vertex lies on R's ring broke
    # the R size bound on a random polygon too, not only on combs
    poly = generate("random", 520, 11)
    edges, meter, _ = run_spt(poly, 246, 12, seed=11, audit=True)
    assert edges == ref_spt(poly, 246)
    assert meter.current_words == 0


def test_randomized_spt_sweep():
    rng = random.Random(0)
    for trial in range(36):
        kind = ("spiral", "comb", "random")[trial % 3]
        n = rng.choice([140, 200, 260])
        seed = 2000 + trial
        poly = generate(kind, n, seed)
        s = rng.choice([11, 13, 17])
        root = rng.randrange(1, poly.n + 1)
        edges, meter, _ = run_spt(poly, root, s, seed=seed)
        assert edges == ref_spt(poly, root), (kind, n, seed, root)
        assert meter.current_words == 0


def test_outside_root_rejected():
    # a point outside the polygon, and points inside it that are not
    # integer points
    poly = BasePolygon(SQUARE)
    for p in [(10, 10), (Fraction(1, 2), 1), (1, Fraction(4, 3)), (0.5, 1)]:
        with pytest.raises(PolygonInputError):
            spt(poly, p, 4, mode=MeterMode.PERMISSIVE)


def test_edge_counts():
    poly = generate("random", 50, 7)
    edges, _, _ = run_spt(poly, 1, 50)
    assert len(edges) == 49
