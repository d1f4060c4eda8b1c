"""Streaming geodesic cursor vs. the visibility-graph oracle."""
import math
import random

import pytest

import scan_oracles
from polyws import geom
from polyws.errors import (InternalInvariantError, PolygonInputError,
                           UsageError)
from polyws.geodesic import GeodesicCursor, first_link
from polyws.oracle import generate, ref_geodesic
from polyws.workspace import BasePolygon, RunStats, SubpolygonView

SQUARE = [(0, 0), (0, 2), (2, 2), (2, 0)]
LPOLY = [(0, 0), (0, 3), (1, 3), (1, 1), (3, 1), (3, 0)]


def test_first_link_square_direct():
    v = SubpolygonView.whole(BasePolygon(SQUARE))
    assert first_link(v, 1, 3, random.Random(0)) == 3


def test_first_link_lpolygon_bend():
    v = SubpolygonView.whole(BasePolygon(LPOLY))
    for seed in range(10):
        assert first_link(v, 2, 6, random.Random(seed)) == 4


@pytest.mark.parametrize("call", [
    lambda v: first_link(v, 5, 0, random.Random(0)),
    lambda v: first_link(v, 5, 45, random.Random(0)),
    lambda v: first_link(v, 41, 20, random.Random(0)),
    lambda v: first_link(v, 5, 20, random.Random(0), hints=(41,)),
    lambda v: first_link(v, 5, 20, random.Random(0), prev=0),
    lambda v: GeodesicCursor(v, 0, 20),
    lambda v: GeodesicCursor(v, 5, 41),
], ids=["t0", "t45", "q41", "hint41", "prev0", "source0", "target41"])
def test_indices_outside_the_view_are_refused(call):
    # local vertices are 1..m: anything else is a clean input error, never
    # a wrapped answer, a vertex that does not exist or an IndexError
    v = SubpolygonView.whole(generate("random", 40, 1))
    with pytest.raises(PolygonInputError, match="not a vertex"):
        call(v)


def test_cursor_square():
    v = SubpolygonView.whole(BasePolygon(SQUARE))
    cur = GeodesicCursor(v, 1, 3, random.Random(1))
    assert list(cur) == [3]
    with pytest.raises(UsageError):
        cur.next_vertex()


def test_cursor_lpolygon():
    v = SubpolygonView.whole(BasePolygon(LPOLY))
    cur = GeodesicCursor(v, 2, 6, random.Random(1))
    assert list(cur) == [4, 6]


def test_first_link_matches_oracle_all_pairs():
    for seed in range(12):
        poly = generate("random", 40, seed)
        v = SubpolygonView.whole(poly)
        rng = random.Random(seed * 17 + 1)
        for q in range(1, 41):
            for t in range(1, 41):
                if q == t:
                    continue
                path = ref_geodesic(poly, q, t)
                assert first_link(v, q, t, rng) == path[1], (seed, q, t)


def test_cursor_sequence_matches_oracle():
    for kind, seed in [("random", 3), ("spiral", 1), ("comb", 2), ("monotone", 4)]:
        poly = generate(kind, 60, seed)
        v = SubpolygonView.whole(poly)
        rng = random.Random(99 + seed)
        for q, t in [(1, 30), (5, 55), (12, 40), (60, 20)]:
            cur = GeodesicCursor(v, q, t, rng)
            assert [q] + list(cur) == ref_geodesic(poly, q, t), (kind, q, t)


def test_yielded_interior_vertices_are_reflex():
    for seed in range(6):
        poly = generate("spiral", 50, seed)
        v = SubpolygonView.whole(poly)
        cur = GeodesicCursor(v, 1, 25, random.Random(seed))
        seq = list(cur)
        for w in seq[:-1]:
            assert geom.is_reflex(v, w)


def test_pause_resume_determinism():
    # interleaving unrelated work (other cursors, rng draws) between next()
    # calls must not change the yielded sequence
    for seed in range(10):
        poly = generate("random", 50, seed)
        v = SubpolygonView.whole(poly)
        plain = list(GeodesicCursor(v, 1, 25, random.Random(7)))
        noisy_rng = random.Random(12345)
        cur = GeodesicCursor(v, 1, 25, random.Random(7))
        out = []
        other = GeodesicCursor(v, 3, 20, random.Random(8))
        while not cur.done:
            out.append(cur.next_vertex())
            noisy_rng.random()
            if not other.done:
                other.next_vertex()
        assert out == plain


def test_round_complexity_logarithmic():
    # empirical surrogate: mean cone rounds per link <= 4*log2(n)
    for kind in ("random", "spiral", "comb"):
        for n, seed in [(60, 1), (200, 2)]:
            poly = generate(kind, n, seed)
            v = SubpolygonView.whole(poly)
            stats = RunStats()
            rng = random.Random(5)
            pairs = [(1, n // 2), (2, n - 5), (n // 3, 1 + 2 * n // 3)]
            for q, t in pairs:
                cur = GeodesicCursor(v, q, t, rng, stats)
                list(cur)
            assert stats.links > 0
            assert stats.rounds / stats.links <= 4 * math.log2(n), (kind, n)


def test_cursor_state_is_constant_words():
    # a cursor's whole stored state fits the charged constant regardless of
    # the view size or path length
    assert GeodesicCursor.WORDS <= 16
    poly = generate("spiral", 200, 1)
    v = SubpolygonView.whole(poly)
    cur = GeodesicCursor(v, 1, 100, random.Random(0))
    for _ in range(5):
        cur.next_vertex()
    state = [cur.prev, cur.current, cur.target, cur.done]
    assert len(state) + 2 <= GeodesicCursor.WORDS  # + view ref and rng seed


def _narrowed_cones(v, q, rng):
    """The initial cone at q, then cones with one or both bounds moved onto
    rays toward candidates, as the search leaves them."""
    from polyws.geodesic import Cone, _initial_cone
    prv, nxt = 1 + (q - 2) % v.m, 1 + q % v.m
    cone = _initial_cone(v, q)
    yield cone
    qx, qy = v.point(q)
    for _ in range(6):
        found = scan_oracles.candidate_scan(v, q, cone)
        if not found:
            return
        r = rng.choice(found)
        rx, ry = v.point(r)
        # a bound neighbor lies on its own bound, which it may only replace
        move_a = r == prv if r in (prv, nxt) else rng.random() < 0.5
        narrowed = Cone(cone.a, cone.b)
        narrowed.a_edge, narrowed.b_edge = cone.a_edge, cone.b_edge
        if move_a:
            narrowed.a, narrowed.a_edge = (rx - qx, ry - qy), False
        else:
            narrowed.b, narrowed.b_edge = (rx - qx, ry - qy), False
        cone = narrowed
        yield cone


def test_bulk_and_scalar_candidate_scans_agree():
    # the int64 scan lists the oracle's candidates, and the sample of them
    # that first_link keeps is the one the same generator state draws from
    # the oracle's list; views of 3 to 8 vertices and around 64, cones from
    # first to late rounds
    from polyws.geodesic import _candidate_scan, _sample_candidates
    for m in (3, 4, 5, 6, 7, 8, 55, 64, 150):
        for kind, seed in [("random", 0), ("random", 1), ("comb", 2),
                           ("spiral", 3)]:
            poly = generate(kind, m, seed)
            v = SubpolygonView.whole(poly)
            pts = v.scan_points()
            for q in (1, 2, m // 3, m - 1, m):
                for cone in _narrowed_cones(v, q, random.Random(q + seed)):
                    ns = scan_oracles.candidate_scan(v, q, cone)
                    assert ns == _candidate_scan(v, q, cone)
                    for k in (1, 3, m):
                        kept, complete = _sample_candidates(
                            v, q, cone, k, random.Random(seed * 31 + q), pts)
                        assert complete == (len(ns) <= k)
                        assert kept == ns if complete else kept == \
                            random.Random(seed * 31 + q).sample(ns, k)


def test_survivor_filter_equals_rescan():
    # the kept candidates that stay in a narrowed cone are exactly the ones
    # the candidate scan of that cone lists, for the whole candidate list and
    # for random samples of it
    from polyws.geodesic import _still_in_cone
    checked = 0
    for kind, n, seed in [("random", 60, 0), ("comb", 62, 1),
                          ("spiral", 60, 2), ("monotone", 60, 3)]:
        v = SubpolygonView.whole(generate(kind, n, seed))
        pts = v.scan_points()
        for q in range(1, n + 1, 3):
            rng = random.Random(q * 7 + seed)
            prev = None
            for cone in _narrowed_cones(v, q, random.Random(q + seed)):
                found = scan_oracles.candidate_scan(v, q, cone)
                if prev is not None:
                    assert _still_in_cone(pts, q, cone, prev) == found
                    sample = rng.sample(prev, (len(prev) + 1) // 2)
                    assert _still_in_cone(pts, q, cone, sample) == \
                        [w for w in sample if w in found]
                    checked += 1
                prev = found
    assert checked > 100


@pytest.mark.parametrize("k", [1, 2, 10 ** 9])
@pytest.mark.parametrize("cutover", [0, 1 << 30])
def test_sampled_search_matches_oracle(monkeypatch, k, cutover):
    # every pair of three polygon families, with one kept candidate per scan
    # (the one-draw search), two, and all of them (one scan per link), on
    # the int64 kernels and on the scalar oracles
    from polyws import geodesic
    monkeypatch.setattr(geodesic, "SAMPLE_K", k)
    scan_oracles.use_oracles_below(monkeypatch, cutover)
    for kind, n, seed in [("random", 40, 5), ("comb", 42, 6),
                          ("spiral", 40, 7)]:
        poly = generate(kind, n, seed)
        v = SubpolygonView.whole(poly)
        rng = random.Random(seed)
        stats = RunStats()
        calls = 0
        for q in range(1, n + 1):
            for t in range(1, n + 1):
                if q == t:
                    continue
                assert first_link(v, q, t, rng, stats) == \
                    ref_geodesic(poly, q, t)[1], (kind, q, t)
                calls += (t - q) % n not in (1, n - 1)
        if k == 1:
            # the one-draw search scans before every shot; rounds add at
            # most one empty-cone check per call
            assert stats.rounds - calls <= stats.scans <= stats.rounds
        if k > n:
            assert stats.scans == calls


def test_sample_words_fit_a_strict_meter(monkeypatch):
    # the sample's words take only the meter's slack, so a strict meter with
    # less room than SAMPLE_K - 1 never refuses them; they are released on
    # return and when first_link raises
    from polyws import geodesic
    from polyws.workspace import MeterMode, WorkspaceMeter
    poly = generate("comb", 120, 3)
    v = SubpolygonView.whole(poly)
    t = ref = None
    for t in range(40, 80):
        ref = ref_geodesic(poly, 1, t)
        if len(ref) > 2:
            break
    seen = []
    ray = geom.ray_scan_light

    def spy(*args):
        seen.append(meter.current_words)
        return ray(*args)
    monkeypatch.setattr(geom, "ray_scan_light", spy)
    for slack in (0, 1, geodesic.SAMPLE_K - 2, geodesic.SAMPLE_K + 5):
        for mode in (MeterMode.STRICT, MeterMode.PERMISSIVE):
            meter = WorkspaceMeter(100, mode)
            meter.alloc(100 - slack)
            seen.clear()
            assert first_link(v, 1, t, random.Random(slack), None,
                              meter) == ref[1]
            assert seen and set(seen) == {
                100 - slack + min(slack, geodesic.SAMPLE_K - 1)}
            assert meter.current_words == 100 - slack
            assert not meter.overage_flag
    # a permissive meter already over its budget lends no sample words
    meter = WorkspaceMeter(100, MeterMode.PERMISSIVE)
    meter.alloc(130)
    seen.clear()
    first_link(v, 1, t, random.Random(0), None, meter)
    assert set(seen) == {130}

    def broken(*args):
        raise InternalInvariantError("injected")
    monkeypatch.setattr(geom, "ray_scan_light", broken)
    meter = WorkspaceMeter(100, MeterMode.STRICT)
    meter.alloc(90)
    with pytest.raises(InternalInvariantError):
        first_link(v, 1, t, random.Random(0), None, meter)
    assert meter.current_words == 90


def _plain_walk(v, q, t, rng, stats=None):
    """The cursor's path from q to t, each link searched without `prev`."""
    path = [q]
    while path[-1] != t:
        path.append(first_link(v, path[-1], t, rng, stats))
    return path


def test_narrowed_search_agrees_with_plain_search():
    # at every vertex of a cursor walk, first_link with the previous path
    # vertex returns what it returns without it; the walks include links
    # that arrive along a boundary edge, where prev lies on a bound of q
    ties = checked = 0
    for kind in ("comb", "spiral", "random", "monotone"):
        for n, seed in [(60, 1), (150, 2), (300, 3)]:
            poly = generate(kind, n, seed)
            v = SubpolygonView.whole(poly)
            for t in (n // 2, n // 3, 2 * n // 3):
                cur = GeodesicCursor(v, 1, t, random.Random(seed + t))
                path = [1] + list(cur)
                assert path == ref_geodesic(poly, 1, t), (kind, n, t)
                for prev, q, nxt in zip(path, path[1:], path[2:]):
                    for draw in range(3):
                        assert first_link(v, q, t, random.Random(draw),
                                          prev=prev) == nxt, (kind, n, t, q)
                        assert first_link(v, q, t,
                                          random.Random(draw)) == nxt
                    ties += (q - prev) % n in (1, n - 1)
                    checked += 1
    assert checked > 300
    assert ties > 20


@pytest.mark.parametrize("side", ["a", "b"])
def test_narrowing_keeps_the_far_bound_when_prev_is_a_neighbor(side):
    # prev on a bound of q (the link arrived along a boundary edge): that
    # bound is replaced, the far bound and its edge flag stay, and the
    # narrowed cone still holds the extension of prev -> q strictly inside
    from polyws.geodesic import _initial_cone, _narrow_past
    poly = generate("comb", 62, 1)
    v = SubpolygonView.whole(poly)
    pts = v.scan_points()
    narrowed = 0
    for q in range(1, 63):
        if not geom.is_reflex(v, q):
            continue
        prev = 1 + (q - 2) % 62 if side == "a" else 1 + q % 62
        cone = _initial_cone(v, q, pts)
        far = cone.b if side == "a" else cone.a
        _narrow_past(cone, pts, q, prev)
        if side == "a":
            assert (cone.b, cone.b_edge, cone.a_edge) == (far, True, False)
        else:
            assert (cone.a, cone.a_edge, cone.b_edge) == (far, True, False)
        (qx, qy), (px, py) = pts[q - 1], pts[prev - 1]
        ex, ey = qx - px, qy - py
        (ax, ay), (bx, by) = cone.a, cone.b
        assert ax * by - ay * bx > 0       # convex
        assert ax * ey - ay * ex > 0 and ex * by - ey * bx > 0
        narrowed += 1
    assert narrowed > 10


def test_narrowed_search_takes_fewer_rounds():
    # the cursor's rounds on comb 1000 against the same path searched
    # without prev; a cursor that stops passing prev fails this
    poly = generate("comb", 1000, 1)
    v = SubpolygonView.whole(poly)
    narrowed, plain = RunStats(), RunStats()
    for t in (500, 333, 667):
        path = [1] + list(GeodesicCursor(v, 1, t, random.Random(t),
                                         narrowed))
        assert _plain_walk(v, 1, t, random.Random(t), plain) == path
    assert narrowed.links > 50
    assert narrowed.rounds < plain.rounds, (narrowed.rounds, plain.rounds)


def test_ring_shot_takes_about_one_round_per_link():
    # a spiral's geodesic bends at each reflex vertex of its inner chain in
    # turn: after the first link each link is certified by the shot at the
    # next reflex vertex along the ring, with no candidate scan
    v = SubpolygonView.whole(generate("spiral", 2000, 1))
    stats = RunStats()
    list(GeodesicCursor(v, 1, v.m // 2, random.Random(1), stats))
    assert stats.links > 900
    assert stats.rounds <= stats.links + 2, (stats.rounds, stats.links)
    assert stats.scans <= 2, stats.scans
    # a comb's geodesics bend round tooth after tooth, each next bend one or
    # three vertices on along the ring
    poly = generate("comb", 1000, 1)
    v = SubpolygonView.whole(poly)
    stats = RunStats()
    for t in (500, 333, 667):
        list(GeodesicCursor(v, 1, t, random.Random(t), stats))
    assert stats.links > 50
    assert stats.scans < stats.links / 10, (stats.scans, stats.links)


def test_ring_walk_steps_at_most_twice_the_ring_per_geodesic(monkeypatch):
    # the ring steps from successive bends on one chain cover disjoint runs
    from polyws import geodesic
    ring_shot = geodesic._ring_shot
    steps = [0]

    def counted(pts, q, step, t):
        h = ring_shot(pts, q, step, t)
        # h == q only after a full turn of m - 1 steps
        steps[0] += (h - q) * step % len(pts) or len(pts) - 1
        return h

    monkeypatch.setattr(geodesic, "_ring_shot", counted)
    walked = 0
    for kind in ("comb", "spiral", "random", "monotone"):
        for n, seed in [(200, 1), (500, 2), (1000, 3)]:
            v = SubpolygonView.whole(generate(kind, n, seed))
            for q, t in [(1, n // 2), (n // 3, n), (n // 5, 3 * n // 4),
                         (n // 2, 1)]:
                steps[0] = 0
                list(GeodesicCursor(v, q, t, random.Random(q + t)))
                assert steps[0] <= 2 * n, (kind, n, q, t, steps[0])
                walked += steps[0]
    assert walked > 2000


# Counterclockwise: a floor, a right wall and a sawtooth ceiling whose first
# two tips, (10, 10) and (20, 20), lie on the line y = x through the corner
# (0, 0), so geodesics from the corner pass straight through (10, 10).  The
# ring is not in general position and is built without check_simple.
STRAIGHT_THROUGH = [(0, 0), (50, 0), (50, 60), (36, 60), (30, 36), (25, 45),
                    (20, 20), (15, 40), (10, 10), (5, 40), (0, 40)]


def test_narrowed_bound_keeps_a_vertex_on_the_extension():
    # prev, q and the next vertex are collinear: the next vertex lies on the
    # extension of prev -> q, and the narrowed search must still find it,
    # and the cursor must give the path it gives without prev
    pts = [STRAIGHT_THROUGH[0]] + STRAIGHT_THROUGH[:0:-1]
    v = SubpolygonView.whole(BasePolygon(pts))
    at = {p: i + 1 for i, p in enumerate(pts)}
    corner, q, w = at[(0, 0)], at[(10, 10)], at[(20, 20)]
    straight = 0
    for t in range(1, len(pts) + 1):
        if t in (corner, q):
            continue
        for draw in range(20):
            plain = first_link(v, q, t, random.Random(draw))
            assert first_link(v, q, t, random.Random(draw),
                              prev=corner) == plain
            if plain == w:
                straight += 1
            path = [corner] + list(GeodesicCursor(v, corner, t,
                                                  random.Random(draw)))
            assert path == _plain_walk(v, corner, t, random.Random(draw))
    assert straight >= 4 * 20


def _hinted_links(v, rng):
    """(q, t, plain answer, hinted answers) for every pair of the view, q
    not a rational vertex (no search starts at a virtual vertex).  The
    hint pool holds q, t, q's neighbors, a random vertex, a non-reflex
    vertex and a reflex vertex outside q's initial cone (the last two when
    the view has one); each pair is hinted with a random ordered draw from
    the pool and with the whole pool in a random order."""
    from polyws.geodesic import _initial_cone, _still_in_cone
    m = v.m
    pts = v.scan_points()
    reflex = [geom.is_reflex(v, w) for w in range(1, m + 1)]
    convex = [w for w in range(1, m + 1) if not reflex[w - 1]]
    for q in range(1, m + 1):
        if q - 1 in v.rational_slots:
            continue
        cone = _initial_cone(v, q, pts)
        outside = [w for w in range(1, m + 1) if w != q and reflex[w - 1]
                   and not _still_in_cone(pts, q, cone, [w])]
        for t in range(1, m + 1):
            if q == t:
                continue
            plain = first_link(v, q, t, random.Random(q * m + t))
            pool = [q, t, 1 + (q - 2) % m, 1 + q % m, rng.randrange(1, m + 1)]
            pool += [rng.choice(c) for c in (convex, outside) if c]
            draw = rng.sample(pool, rng.randrange(1, len(pool) + 1))
            rng.shuffle(pool)
            hinted = [first_link(v, q, t, random.Random(q * m + t),
                                 hints=hints) for hints in (draw, pool)]
            yield q, t, plain, hinted


def test_hints_never_change_the_answer():
    # every pair of generated 16- to 80-gons, hinted with q, t, q +- 1,
    # random, non-reflex and out-of-cone vertices in random orders, against
    # the unhinted search and the oracle's tree toward t
    from polyws.oracle import ref_spt
    checked = 0
    for kind, n, seed in [("random", 16, 1), ("comb", 40, 2),
                          ("spiral", 40, 3), ("monotone", 40, 4),
                          ("random", 80, 5)]:
        poly = generate(kind, n, seed)
        v = SubpolygonView.whole(poly)
        parent = {}
        for t in range(1, n + 1):
            for p, c in ref_spt(poly, t):
                parent[c, t] = p
        for q, t, plain, hinted in _hinted_links(v, random.Random(seed)):
            assert plain == parent[q, t], (kind, n, q, t)
            assert hinted == [plain, plain], (kind, n, q, t)
            checked += 1
    assert checked > 10000


def test_hints_never_change_the_answer_with_a_virtual_vertex():
    # the same on views with one rational vertex, where the virtual vertex
    # is q - 1 for the vertex after it, and t (a target that is never shot
    # at), but never q; the oracle is the funnel's tree.  Next to the
    # straight virtual vertex (H inserted into an edge) the search misses
    # the reflex vertex beyond it on q's bound, hinted or not, so the oracle
    # is checked only at q away from it.  The vertex moved off the lattice
    # is left out: a search may shoot at it, which the ray scans refuse
    from conftest import one_virtual_twins
    from polyws.spt import funnel_parents
    after_virtual = 0
    for n, seed in [(30, 1), (24, 2)]:
        v = SubpolygonView.whole(generate("random", n, seed))
        for w in one_virtual_twins(v, seed, n // 2)[0][:4]:
            m = w.m
            h = w.rational_slots[0] + 1
            pts = w.scan_points()
            straight = geom.orient(pts[h - 2], pts[h - 1], pts[h % m]) == \
                geom.COLLINEAR
            parents = {t: funnel_parents(w, t) for t in range(1, m + 1)}
            for q, t, plain, hinted in _hinted_links(w, random.Random(m)):
                assert hinted == [plain, plain], (m, q, t)
                if not (straight and (q - h) % m in (1, m - 1)):
                    assert plain == parents[t][q], (m, q, t)
                after_virtual += q == 1 + h % m
    assert after_virtual > 100


def test_a_hint_that_is_the_answer_costs_one_round():
    # shot first, the answer certifies itself: one round, no candidate scan
    for kind, n, seed in [("random", 40, 1), ("comb", 42, 2),
                          ("spiral", 40, 3)]:
        poly = generate(kind, n, seed)
        v = SubpolygonView.whole(poly)
        for q in range(1, n + 1):
            for t in range(1, n + 1):
                if (t - q) % n in (0, 1, n - 1):
                    continue
                answer = first_link(v, q, t, random.Random(t))
                stats = RunStats()
                assert first_link(v, q, t, random.Random(t), stats,
                                  hints=(q, answer)) == answer
                assert (stats.rounds, stats.scans) == (1, 0), (kind, q, t)


def test_hints_add_no_collinear_misses():
    # on the straight-through ring some pairs miss a vertex lying on a shot
    # ray, or raise, for some draws (a known defect of the exact-direction
    # bounds); at every pair where the plain search answers right on all of
    # 60 draws, every single hint answers right too
    pts = [STRAIGHT_THROUGH[0]] + STRAIGHT_THROUGH[:0:-1]
    poly = BasePolygon(pts)
    v = SubpolygonView.whole(poly)
    m = v.m
    clean = 0
    for q in range(1, m + 1):
        for t in range(1, m + 1):
            if q == t:
                continue
            answer = ref_geodesic(poly, q, t)[1]
            try:
                if any(first_link(v, q, t, random.Random(d)) != answer
                       for d in range(60)):
                    continue
            except InternalInvariantError:
                continue
            for h in range(1, m + 1):
                for d in range(3):
                    assert first_link(v, q, t, random.Random(d),
                                      hints=(h,)) == answer, (q, t, h)
            clean += 1
    assert clean > 80
    # the same for the ring shot of a cursor's narrowed search: at every
    # bend (prev, q) of an oracle path where the narrowed search without the
    # shot answers right on all of 60 draws, the search with it does too
    from polyws import geodesic
    with_shot = 0
    for s in range(1, m + 1):
        for t in range(1, m + 1):
            if s == t:
                continue
            path = ref_geodesic(poly, s, t)
            for prev, q, nxt in zip(path, path[1:], path[2:]):
                try:
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(geodesic, "_ring_shot",
                                   lambda pts, q, step, t: q)
                        if any(first_link(v, q, t, random.Random(d),
                                          prev=prev) != nxt
                               for d in range(60)):
                            continue
                except InternalInvariantError:
                    continue
                for d in range(60):
                    assert first_link(v, q, t, random.Random(d),
                                      prev=prev) == nxt, (prev, q, t)
                with_shot += 1
    assert with_shot > 20
