"""Streaming geodesic cursor vs. the visibility-graph oracle."""
import math
import random

import pytest

from conftest import scan_cutover
from polyws import geom
from polyws.errors import UsageError
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
    from polyws.geodesic import Cone, _candidate_scan_scalar, _initial_cone
    prv, nxt = 1 + (q - 2) % v.m, 1 + q % v.m
    cone = _initial_cone(v, q)
    yield cone
    qx, qy = v.point(q)
    for _ in range(6):
        found = _candidate_scan_scalar(v, q, cone)
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


def test_bulk_and_scalar_candidate_scans_agree(monkeypatch):
    # both scans list the same candidates, and the sample of them that
    # first_link keeps is the same from the same generator state on either
    # path; views of 3 to 8 vertices and around 64, cones from first to late
    # rounds
    from polyws.geodesic import (_candidate_scan_bulk, _candidate_scan_scalar,
                                 _sample_candidates)
    for m in (3, 4, 5, 6, 7, 8, 55, 64, 150):
        for kind, seed in [("random", 0), ("random", 1), ("comb", 2),
                           ("spiral", 3)]:
            poly = generate(kind, m, seed)
            v = SubpolygonView.whole(poly)
            pts = v.scan_points()
            for q in (1, 2, m // 3, m - 1, m):
                for cone in _narrowed_cones(v, q, random.Random(q + seed)):
                    ns = _candidate_scan_scalar(v, q, cone)
                    assert ns == _candidate_scan_bulk(v, q, cone)
                    for k in (1, 3, m):
                        draws = []
                        for cutover in (0, 1 << 30):
                            scan_cutover(monkeypatch, cutover)
                            draws.append(_sample_candidates(
                                v, q, cone, k, random.Random(seed * 31 + q),
                                pts))
                        assert draws[0] == draws[1]
                        kept, complete = draws[0]
                        assert complete == (len(ns) <= k)
                        assert kept == ns if complete else (
                            len(kept) == k and set(kept) <= set(ns))


def test_survivor_filter_equals_rescan():
    # the kept candidates that stay in a narrowed cone are exactly the ones
    # the candidate scan of that cone lists, for the whole candidate list and
    # for random samples of it
    from polyws.geodesic import _candidate_scan_scalar, _still_in_cone
    checked = 0
    for kind, n, seed in [("random", 60, 0), ("comb", 62, 1),
                          ("spiral", 60, 2), ("monotone", 60, 3)]:
        v = SubpolygonView.whole(generate(kind, n, seed))
        pts = v.scan_points()
        for q in range(1, n + 1, 3):
            rng = random.Random(q * 7 + seed)
            prev = None
            for cone in _narrowed_cones(v, q, random.Random(q + seed)):
                found = _candidate_scan_scalar(v, q, cone)
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
    # the int64 and the scalar scans
    from polyws import geodesic
    monkeypatch.setattr(geodesic, "SAMPLE_K", k)
    scan_cutover(monkeypatch, cutover)
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
    from polyws.errors import InternalInvariantError
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
