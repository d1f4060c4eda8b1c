"""Ground-truth machinery: generators, reference geodesics/trees, validators."""
import hashlib
import random

import pytest

from polyws import geom
from polyws.oracle import (check_simple, generate, ref_geodesic, ref_spt,
                           validate_partition, validate_triangulation)
from polyws.workspace import BasePolygon, SubpolygonView, _signed_area2

SQUARE = [(0, 0), (0, 2), (2, 2), (2, 0)]
LPOLY = [(0, 0), (0, 3), (1, 3), (1, 1), (3, 1), (3, 0)]


def test_ref_geodesic_square():
    poly = BasePolygon(SQUARE)
    assert ref_geodesic(poly, 1, 3) == [1, 3]


def test_ref_geodesic_lpolygon():
    poly = BasePolygon(LPOLY)
    assert ref_geodesic(poly, 2, 6) == [2, 4, 6]
    # both segments stay inside the polygon (hand-verifiable containment)
    v = SubpolygonView.whole(poly)
    assert geom.is_visible(v, 2, 4) and geom.is_visible(v, 4, 6)


def test_ref_geodesic_reversal_symmetry():
    for seed in range(6):
        poly = generate("random", 30, seed)
        rng = random.Random(seed)
        for _ in range(20):
            a = rng.randrange(1, 31)
            b = rng.randrange(1, 31)
            if a == b:
                continue
            assert ref_geodesic(poly, a, b) == ref_geodesic(poly, b, a)[::-1]


def test_ref_geodesic_subpath_optimality():
    for seed in range(4):
        poly = generate("random", 24, seed)
        for a in range(1, 25, 5):
            for b in range(2, 25, 7):
                if a == b:
                    continue
                path = ref_geodesic(poly, a, b)
                for k in range(1, len(path)):
                    assert ref_geodesic(poly, path[k - 1], path[-1]) == path[k - 1:]
                    break  # one suffix per pair keeps this quick


def test_ref_spt_square_fan():
    poly = BasePolygon(SQUARE)
    assert ref_spt(poly, 1) == {(1, 2), (1, 3), (1, 4)}


def test_ref_spt_lpolygon():
    poly = BasePolygon(LPOLY)
    assert ref_spt(poly, 2) == {(2, 1), (2, 3), (2, 4), (4, 5), (4, 6)}


def test_validate_triangulation_cases():
    sq = BasePolygon(SQUARE)
    assert validate_triangulation(sq, [(1, 3)]).ok
    assert not validate_triangulation(sq, []).ok
    pent = BasePolygon([(0, 0), (-1, 4), (2, 7), (5, 4), (4, 0)])
    assert not validate_triangulation(pent, [(1, 3), (2, 5)]).ok  # crossing
    assert validate_triangulation(pent, [(1, 3), (1, 4)]).ok
    assert not validate_triangulation(pent, [(1, 3), (1, 3)]).ok  # duplicate
    assert not validate_triangulation(pent, [(1, 3), (4, 5)]).ok  # edge


def test_check_simple_rejects_bowtie():
    rep = check_simple([(0, 0), (2, 2), (2, 0), (0, 2)])
    assert not rep.ok


def test_check_simple_rejects_collinear():
    rep = check_simple([(0, 0), (2, 2), (4, 4), (4, 0)])
    assert not rep.ok
    rep2 = check_simple([(0, 0), (0, 4), (4, 4), (4, 0), (2, 0)])  # on-edge
    assert not rep2.ok
    # a straight vertex is simple; above gp_limit it is not checked
    assert check_simple([(0, 0), (2, 2), (4, 4), (4, 0)], gp_limit=3).ok


def test_generators_simple_and_deterministic():
    for kind in ("random", "convex", "comb", "spiral", "monotone"):
        p1 = generate(kind, 26, 5)
        p2 = generate(kind, 26, 5)
        assert p1.points() == p2.points(), kind
        assert check_simple(p1.points()).ok, kind
        # clockwise orientation
        assert _signed_area2(p1.points()) < 0, kind


def test_convex_has_no_reflex():
    poly = generate("convex", 8, 1)
    v = SubpolygonView.whole(poly)
    assert not any(geom.is_reflex(v, i) for i in range(1, 9))


def _strictly_convex(pts, n):
    return len(pts) == n and all(
        geom.orient(pts[i - 1], pts[i], pts[(i + 1) % n]) == geom.CLOCKWISE
        for i in range(n))


@pytest.mark.parametrize("n", [16000, 20000])
def test_large_convex_rings_are_strictly_convex(n):
    # every random draw at these sizes repeats an edge direction, so the
    # ring comes from the deterministic fallback
    pts = generate("convex", n, 1).points()
    assert _strictly_convex(pts, n)
    assert all(abs(c) <= geom.COORD_LIMIT for p in pts for c in p)
    assert check_simple(pts).ok


def test_convex_fallback_rings_of_every_parity():
    from polyws.oracle import _convex_fallback
    for n in (3, 4, 7, 50, 501):
        pts = BasePolygon.clockwise(_convex_fallback(n, n)).points()
        assert _strictly_convex(pts, n), n


def test_convex_rings_below_the_fallback_are_unchanged():
    pts = generate("convex", 1000, 1).points()
    assert hashlib.sha256(repr(pts).encode()).hexdigest() == \
        "a691fea44eaafe385faaa864a1838d7f04cc68ec3644adea4c2916e50091423f"


def test_comb_reflex_count_formula():
    for k, seed in [(3, 0), (5, 1), (10, 2)]:
        n = 4 * k + 2
        poly = generate("comb", n, seed)
        v = SubpolygonView.whole(poly)
        reflex = sum(1 for i in range(1, n + 1) if geom.is_reflex(v, i))
        assert reflex == 2 * k - 1, (k, reflex)


def test_spiral_has_deep_reflex_chain():
    poly = generate("spiral", 60, 3)
    v = SubpolygonView.whole(poly)
    reflex = sum(1 for i in range(1, 61) if geom.is_reflex(v, i))
    assert reflex >= 20


@pytest.mark.parametrize("n", [7273, 14000, 14001, 20000])
def test_large_spirals_are_simple_on_the_first_attempt(n):
    # past the largest n whose original spiral shape can be simple (odd n
    # from 7273, even n from 13666) the wide shape is used; its first ring
    # passes the input check, so generate makes no retries
    from polyws import oracle
    for seed in (1, 2):
        pts = BasePolygon.clockwise(oracle._gen_spiral(n, seed)).points()
        assert check_simple(pts).ok, (n, seed)
    assert generate("spiral", n, 1).points() == \
        BasePolygon.clockwise(oracle._gen_spiral(n, 1)).points()


def test_spirals_below_the_wide_shape_are_unchanged():
    # digests of the original generator's rings, which benchmark and golden
    # inputs depend on
    from polyws.oracle import _gen_spiral
    for n, seed, digest in [(60, 3, "90e2337e8c7d86e6"),
                            (2000, 1001, "73f57c3dc9852d79"),
                            (7271, 1, "3e1a4cce5c5a4cc5"),
                            (13000, 1, "913aa84d39b3baa2"),
                            (13664, 2, "85ff114836ed9181")]:
        ring = repr(_gen_spiral(n, seed)).encode()
        assert hashlib.sha256(ring).hexdigest()[:16] == digest, (n, seed)


def test_validate_partition_accepts_triangle_pieces():
    # a convex hexagon split by its three short fan diagonals from vertex 1
    pts = generate("convex", 6, 2)
    diagonals = [(1, 3), (1, 4), (1, 5)]
    pieces = [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6]]
    rep = validate_partition(pts, diagonals, pieces, s=6)
    assert rep.ok, rep.errors


def test_validate_partition_catches_bad_sizes():
    pts = generate("convex", 12, 2)
    # one big piece and one tiny piece: t = max(ceil(12/2),3) = 6
    diagonals = [(1, 3)]
    pieces = [[1, 2, 3], [1] + list(range(3, 13))]
    rep = validate_partition(pts, diagonals, pieces, s=2)
    assert not rep.ok


def _first_crossing_rows(xs, ys):
    """Row-by-row reference for oracle._first_crossing: edge k against every
    later edge, first crossing pair in row-major order."""
    import numpy as np
    n = len(xs)
    ax, ay = xs, ys
    bx, by = np.roll(xs, -1), np.roll(ys, -1)
    for k in range(n - 2):
        o1 = np.sign((bx[k] - ax[k]) * (ys - ay[k])
                     - (by[k] - ay[k]) * (xs - ax[k]))
        o2 = np.sign((bx[k] - ax[k]) * (by - ay[k])
                     - (by[k] - ay[k]) * (bx - ax[k]))
        o3 = np.sign((bx - ax) * (ay[k] - ay) - (by - ay) * (ax[k] - ax))
        o4 = np.sign((bx - ax) * (by[k] - ay) - (by - ay) * (bx[k] - ax))
        crossing = (o1 * o2 < 0) & (o3 * o4 < 0)
        crossing[:k + 1] = False
        hit = np.nonzero(crossing)[0]
        if hit.size:
            return k, int(hit[0])
    return None


def test_blocked_crossing_scan_matches_row_scan():
    # the blocked scan finds the same first pair as the row-by-row scan, on
    # grids full of collinear and touching edges and along whole 2-opt
    # untangling runs, where rows before the last move's first edge are
    # tested against the two edges it replaced only
    import numpy as np
    from polyws.oracle import _first_crossing
    rng = random.Random(11)
    for trial in range(150):
        n = rng.randrange(4, 90)
        span = rng.choice((6, 40, 1000))
        xs = np.array([rng.randrange(span) for _ in range(n)], dtype=np.int64)
        ys = np.array([rng.randrange(span) for _ in range(n)], dtype=np.int64)
        assert _first_crossing(xs, ys) == _first_crossing_rows(xs, ys)
    for trial in range(6):
        n = rng.randrange(10, 70)
        pts = list({(rng.randrange(10 ** 6), rng.randrange(10 ** 6))
                    for _ in range(n)})
        xs = np.array([p[0] for p in pts], dtype=np.int64)
        ys = np.array([p[1] for p in pts], dtype=np.int64)
        order = np.arange(len(pts))
        row, moved = 0, ()
        while True:
            want = _first_crossing_rows(xs[order], ys[order])
            assert _first_crossing(xs[order], ys[order], row, moved) == want
            if want is None:
                break
            i, j = want
            order[i + 1:j + 1] = order[i + 1:j + 1][::-1]
            row, moved = i, (i, j)


# ---------------------------------------------------------------------------
# check_simple against the quadratic checks it replaced

def _check_simple_reference(points, general_position=True, gp_limit=2048):
    """Quadratic reference for oracle.check_simple: every vertex against every
    edge, then every edge against every edge, then (up to gp_limit) the
    primitive directions from every vertex to all others."""
    import numpy as np
    from polyws.oracle import Report
    rep = Report()
    n = len(points)
    if n < 3:
        rep.fail("fewer than 3 vertices")
        return rep
    if len(set(points)) != n:
        rep.fail("duplicate vertices")
        return rep
    xs = np.array([p[0] for p in points], dtype=np.int64)
    ys = np.array([p[1] for p in points], dtype=np.int64)
    ax, ay = xs, ys
    bx, by = np.roll(xs, -1), np.roll(ys, -1)
    # vertex on another edge (so inside it: vertices are distinct)
    for k in range(n):
        ex, ey = bx[k] - ax[k], by[k] - ay[k]
        cr = ex * (ys - ay[k]) - ey * (xs - ax[k])
        on = (cr == 0) \
            & (np.minimum(ax[k], bx[k]) <= xs) & (xs <= np.maximum(ax[k], bx[k])) \
            & (np.minimum(ay[k], by[k]) <= ys) & (ys <= np.maximum(ay[k], by[k]))
        on[k] = False
        on[(k + 1) % n] = False
        if on.any():
            rep.fail(f"vertex {int(np.nonzero(on)[0][0]) + 1} lies on edge {k + 1}")
            return rep
    # pairwise proper crossings
    for k in range(n):
        o1 = np.sign((bx[k] - ax[k]) * (ys - ay[k]) - (by[k] - ay[k]) * (xs - ax[k]))
        o2 = np.sign((bx[k] - ax[k]) * (by - ay[k]) - (by[k] - ay[k]) * (bx - ax[k]))
        o3 = np.sign((bx - ax) * (ay[k] - ay) - (by - ay) * (ax[k] - ax))
        o4 = np.sign((bx - ax) * (by[k] - ay) - (by - ay) * (bx[k] - ax))
        crossing = (o1 * o2 < 0) & (o3 * o4 < 0)
        crossing[k] = False
        hit = np.nonzero(crossing)[0]
        hit = hit[hit > k]
        if hit.size:
            rep.fail(f"edges {k + 1} and {int(hit[0]) + 1} cross")
            return rep
    if general_position and n <= gp_limit:
        col = _collinear_triple_reference(xs, ys)
        if col is not None:
            rep.fail(f"vertices {col} are collinear")
    return rep


def _collinear_triple_reference(xs, ys):
    """Row-by-row reference for oracle._collinear_triple: each vertex's
    primitive directions to all others, sorted for a repeat."""
    import numpy as np
    n = len(xs)
    for i in range(n):
        dx = np.delete(xs - xs[i], i)
        dy = np.delete(ys - ys[i], i)
        neg = (dx < 0) | ((dx == 0) & (dy < 0))
        dx = np.where(neg, -dx, dx)
        dy = np.where(neg, -dy, dy)
        g = np.gcd(np.abs(dx), np.abs(dy))
        g[g == 0] = 1
        dx //= g
        dy //= g
        pairs = dx * (1 << 32) + dy  # dx >= 0, |dy| < 2^27: injective
        uniq, counts = np.unique(pairs, return_counts=True)
        if (counts > 1).any():
            dup = uniq[np.argmax(counts > 1)]
            others = [k for k in range(n) if k != i]
            hits = [others[k] for k in np.nonzero(pairs == dup)[0][:2]]
            return (i + 1, hits[0] + 1, hits[1] + 1)
    return None


def _on_segment(p, q, r):
    """Whether r lies on the closed segment pq."""
    return (geom.orient(p, q, r) == geom.COLLINEAR
            and min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def _fault_is_real(points, msg):
    """Whether the fault a check_simple error names is present in the ring."""
    import re
    n = len(points)

    def edge(k):
        return points[k - 1], points[k % n]

    m = re.fullmatch(r"vertices (\d+) and (\d+) coincide", msg)
    if m:
        a, b = int(m[1]), int(m[2])
        return a != b and points[a - 1] == points[b - 1]
    m = re.fullmatch(r"vertex (\d+) lies on edge (\d+)", msg)
    if m:
        v, k = int(m[1]), int(m[2])
        return v not in (k, k % n + 1) and _on_segment(*edge(k), points[v - 1])
    m = re.fullmatch(r"edges (\d+) and (\d+) cross", msg)
    if m:
        (p, q), (r, s) = edge(int(m[1])), edge(int(m[2]))
        return (geom.orient(p, q, r) * geom.orient(p, q, s) < 0
                and geom.orient(r, s, p) * geom.orient(r, s, q) < 0)
    m = re.fullmatch(r"vertices \((\d+), (\d+), (\d+)\) are collinear", msg)
    if m:
        a, b, c = (int(g) for g in m.groups())
        return (len({a, b, c}) == 3 and geom.orient(
            points[a - 1], points[b - 1], points[c - 1]) == geom.COLLINEAR)
    return False


def _agree(points, tally):
    """check_simple and its reference give one verdict, with and without the
    general-position test, and each rejection names a real fault."""
    for gp in (True, False):
        got = check_simple(points, general_position=gp)
        want = _check_simple_reference(points, general_position=gp)
        assert got.ok == want.ok, (points, gp, got, want)
        if not got.ok:
            assert _fault_is_real(points, got.errors[0]), (points, got)
        tally[got.ok] += 1


def _star_ring(points):
    """The points in angular order around a point off every grid line:
    rings that are simple far more often than a random order."""
    import math
    n = len(points)
    cx = sum(p[0] for p in points) / n + 0.1
    cy = sum(p[1] for p in points) / n + 0.13
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def test_check_simple_agrees_on_tiny_grid_rings():
    # 3..11 vertices on 3x3 to 10x10 grids: vertical and horizontal edges,
    # touching vertices, spikes, collinear overlaps and duplicates
    rng = random.Random(7)
    tally = {True: 0, False: 0}
    for _ in range(1500):
        span = rng.randrange(3, 11)
        n = rng.randrange(3, 12)
        if rng.random() < 0.25:
            pts = [(rng.randrange(span), rng.randrange(span))
                   for _ in range(n)]
        else:
            grid = [(x, y) for x in range(span) for y in range(span)]
            pts = rng.sample(grid, min(n, len(grid)))
        if rng.random() < 0.5:
            pts = _star_ring(pts)
        _agree(pts, tally)
    assert tally[False] > 1500 and tally[True] > 800, tally


def _scaled(points, f):
    return [(f * x, f * y) for x, y in points]


def _moved(points, rng):
    """The ring with one vertex moved onto another vertex, onto the middle
    of a non-incident edge, just across that middle, or nudged."""
    n = len(points)
    pts = list(points)
    v = rng.randrange(n)
    k = rng.choice([k for k in range(n) if k not in (v, (v - 1) % n)])
    (px, py), (qx, qy) = pts[k], pts[(k + 1) % n]
    mid = ((px + qx) // 2, (py + qy) // 2)       # exact: coordinates even
    how = rng.randrange(4)
    if how == 0:
        pts[v] = pts[rng.choice([j for j in range(n) if j != v])]
    elif how == 1:
        pts[v] = mid
    elif how == 2:
        side = geom.orient(pts[k], pts[(k + 1) % n], pts[v])
        for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            q = (mid[0] + d[0], mid[1] + d[1])
            if geom.orient(pts[k], pts[(k + 1) % n], q) == -side != 0:
                pts[v] = q
                break
    else:
        pts[v] = (pts[v][0] + rng.randrange(-9, 10),
                  pts[v][1] + rng.randrange(-9, 10))
    return pts


def test_check_simple_agrees_on_moved_vertices():
    rng = random.Random(3)
    tally = {True: 0, False: 0}
    for kind in ("random", "convex", "comb", "spiral", "monotone"):
        for seed in range(4):
            poly = _scaled(generate(kind, rng.randrange(12, 41), seed).points(),
                           4)
            _agree(poly, tally)
            for _ in range(12):
                _agree(_moved(poly, rng), tally)
    assert tally[False] > 200 and tally[True] > 60, tally


def _turned(points, quarter):
    """The ring turned by 90 degrees, or by 45 degrees and scaled by sqrt 2
    about its bounding box centre (exact on integers)."""
    if quarter:
        return [(-y, x) for x, y in points]
    cx = (min(p[0] for p in points) + max(p[0] for p in points)) // 2
    cy = (min(p[1] for p in points) + max(p[1] for p in points)) // 2
    return [(x - cx - (y - cy), x - cx + (y - cy)) for x, y in points]


def test_check_simple_agrees_on_turned_combs():
    # the sweep line crosses a constant fraction of a turned comb's edges
    rng = random.Random(5)
    tally = {True: 0, False: 0}
    comb = _scaled(generate("comb", 1002, 3).points(), 2)
    for quarter in (True, False):
        ring = _turned(comb, quarter)
        _agree(ring, tally)
        for _ in range(5):
            _agree(_moved(ring, rng), tally)
    assert tally[True] >= 2 and tally[False] >= 8, tally


def test_collinear_triple_matches_row_search():
    import numpy as np
    from polyws.oracle import _collinear_triple
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(3, 80)
        span = rng.choice((5, 20, 100, 1 << 26))
        pts = list({(rng.randrange(-span, span), rng.randrange(-span, span))
                    for _ in range(n)})
        if len(pts) < 3:
            continue
        xs = np.array([p[0] for p in pts], dtype=np.int64)
        ys = np.array([p[1] for p in pts], dtype=np.int64)
        assert _collinear_triple(xs, ys) == _collinear_triple_reference(xs, ys)
