"""Predicate and boundary-scan tests, including brute-force cross-checks."""
import math
import random
from fractions import Fraction

import pytest

from conftest import dir_in_interior_wedge, one_virtual_twins, scan_cutover
from polyws import geom
from polyws.errors import InternalInvariantError, PolygonInputError
from polyws.workspace import BasePolygon, SubpolygonView

SQUARE = [(0, 0), (0, 2), (2, 2), (2, 0)]          # clockwise
LPOLY = [(0, 0), (0, 3), (1, 3), (1, 1), (3, 1), (3, 0)]   # clockwise


def view_of(points):
    return SubpolygonView.whole(BasePolygon(points))


def test_orient_examples():
    assert geom.orient((0, 0), (1, 0), (0, 1)) == geom.COUNTERCLOCKWISE
    assert geom.orient((0, 0), (1, 1), (2, 2)) == geom.COLLINEAR
    assert geom.orient((0, 0), (0, 1), (1, 1)) == geom.CLOCKWISE


def test_orient_antisymmetry():
    rng = random.Random(7)
    for _ in range(500):
        pts = [(rng.randrange(-50, 51), rng.randrange(-50, 51)) for _ in range(3)]
        a, b, c = pts
        s = geom.orient(a, b, c)
        assert geom.orient(b, a, c) == -s
        assert geom.orient(a, c, b) == -s
        assert geom.orient(c, b, a) == -s


def test_coord_range_rejected():
    with pytest.raises(PolygonInputError):
        geom.check_coord((1 << 26) + 1)
    with pytest.raises(PolygonInputError):
        geom.check_coord(1.5)
    assert geom.check_coord(-(1 << 26)) == -(1 << 26)


def test_segments_properly_intersect_examples():
    assert geom.segments_properly_intersect((0, 0), (2, 2), (0, 2), (2, 0))
    assert not geom.segments_properly_intersect((0, 0), (1, 0), (1, 0), (2, 0))
    assert not geom.segments_properly_intersect((0, 0), (1, 0), (0, 1), (1, 1))


def test_segments_collinear_overlap_is_not_proper():
    assert not geom.segments_properly_intersect((0, 0), (4, 0), (1, 0), (3, 0))


def brute_ray_hits(points, origin, toward):
    """All proper ray/edge crossings by plain Fraction arithmetic; `origin`
    is a 1-based index into `points` or a free point."""
    n = len(points)
    ox, oy = points[origin - 1] if isinstance(origin, int) else origin
    tx, ty = toward
    dx, dy = tx - ox, ty - oy
    hits = []
    for k in range(1, n + 1):
        ax, ay = points[k - 1]
        bx, by = points[k % n]
        ex, ey = bx - ax, by - ay
        den = dx * ey - dy * ex
        if den == 0:
            continue
        t = Fraction((ax - ox) * ey - (ay - oy) * ex, den)
        u = Fraction((ax - ox) * dy - (ay - oy) * dx, den)
        if t > 0 and 0 < u < 1:
            hits.append((t, k, (ox + t * dx, oy + t * dy)))
    return sorted(hits)


def test_ray_shoot_square_top():
    v = view_of(SQUARE)
    hit = geom.ray_shoot(v, 1, (1, 2))
    assert hit.edge == 2            # edge (0,2)-(2,2)
    assert hit.point == (1, 2)


def test_ray_shoot_square_right():
    v = view_of(SQUARE)
    hit = geom.ray_shoot(v, 1, (2, 1))
    assert hit.edge == 3            # edge (2,2)-(2,0)
    assert hit.point == (2, 1)


def test_ray_shoot_rejects_out_of_range_vertices():
    v = view_of(SQUARE)
    for origin, toward in [(0, 2), (-1, 2), (5, 2), (1, 0), (1, 5)]:
        with pytest.raises(PolygonInputError):
            geom.ray_shoot(v, origin, toward)
        with pytest.raises(PolygonInputError):
            geom.ray_scan_light(v, origin, toward)
    with pytest.raises(PolygonInputError):
        geom.ray_shoot(v, 0, (2, 1))


def test_ray_shoot_lpoly_derived():
    v = view_of(LPOLY)
    hit = geom.ray_shoot(v, 2, 6)
    expect = brute_ray_hits(LPOLY, 2, LPOLY[5])[0]
    assert hit.edge == 3            # edge (1,3)-(1,1)
    assert hit.point == (1, 2)
    assert hit.ray_t == expect[0]
    assert expect[2] == (1, 2)


def test_ray_shoot_minimality_random():
    rng = random.Random(11)
    v = view_of(LPOLY)
    for _ in range(50):
        toward = (rng.randrange(1, 4), rng.randrange(1, 4))
        origin = rng.choice([1, 2, 6])
        if toward == v.point(origin):
            continue
        hits = brute_ray_hits(LPOLY, origin, toward)
        if not hits:
            continue
        got = geom.ray_shoot(v, origin, toward)
        if got.edge is not None:
            assert got.ray_t == hits[0][0]


def test_is_visible_examples():
    sq = view_of(SQUARE)
    assert geom.is_visible(sq, 1, 3)
    lp = view_of(LPOLY)
    assert not geom.is_visible(lp, 2, 6)
    assert geom.is_visible(lp, 2, 4)


def test_is_visible_symmetry_random_polygons():
    from polyws.oracle import generate
    for seed in range(10):
        poly = generate("random", 24, seed)
        v = SubpolygonView.whole(poly)
        for i in range(1, v.m + 1):
            for j in range(i + 1, v.m + 1):
                assert geom.is_visible(v, i, j) == geom.is_visible(v, j, i)


def test_max_angle_reflex_via_far_case_flow():
    # L-polygon: the ray from v6 toward v2 first crosses the notch ceiling
    # (1,1)-(3,1) at (2,1); the ceiling's far endpoint v4 is visible from v6,
    # so the repair scan is never needed and the flow yields v4 directly.
    v = view_of(LPOLY)
    assert not geom.is_visible(v, 6, 2)
    hit = geom.ray_shoot(v, 6, 2)
    assert hit.edge == 4
    assert hit.point == (2, 1)
    assert geom.is_visible(v, 6, 4)


def test_max_angle_reflex_randomized_instances():
    # wherever a ray's first-hit edge has an endpoint invisible from the
    # apex, the widest-angle reflex vertex inside the blocking triangle must
    # be visible from the apex, reflex, and strictly inside the triangle
    from polyws.oracle import generate
    checked = 0
    for seed in range(30):
        poly = generate("random", 26, seed)
        v = SubpolygonView.whole(poly)
        for q in range(1, v.m + 1):
            for t in range(1, v.m + 1):
                if q == t or geom.is_visible(v, q, t):
                    continue
                vq, vt = v.point(q), v.point(t)
                d = (vt[0] - vq[0], vt[1] - vq[1])
                if not dir_in_interior_wedge(v, q, d):
                    continue
                hit = geom.ray_shoot(v, q, t)
                if hit.edge is None:
                    continue
                for pn in (hit.edge, 1 + hit.edge % v.m):
                    if pn == q or geom.is_visible(v, q, pn):
                        continue
                    A, P, H = v.point(q), v.point(pn), hit.point
                    if geom.orient(A, P, H) == geom.COLLINEAR:
                        continue
                    r = geom.max_angle_reflex_in_triangle(v, q, pn, hit.point)
                    assert geom.is_visible(v, q, r)
                    ot = geom.orient(A, P, H)
                    X = v.point(r)
                    assert geom.orient(A, P, X) == ot
                    assert geom.orient(P, H, X) == ot
                    assert geom.orient(H, A, X) == ot
                    assert geom.is_reflex(v, r)
                    # a point apex: the vertex's own point gives the same
                    # answer; from the midpoint M of the clear segment A-H
                    # the answer (or p_n when the smaller triangle holds no
                    # reflex vertex) is visible, reflex and inside
                    assert geom.max_angle_reflex_in_triangle(v, A, pn, H) == r
                    M = (Fraction(A[0] + H[0], 2), Fraction(A[1] + H[1], 2))
                    rm = geom.max_angle_reflex_in_triangle(v, M, pn, H)
                    if rm is None:
                        assert geom.point_sees_vertex(v, M, pn)
                    else:
                        assert geom.point_sees_vertex(v, M, rm)
                        assert geom.is_reflex(v, rm)
                        X = v.point(rm)
                        assert geom.orient(M, P, X) == ot
                        assert geom.orient(P, H, X) == ot
                        assert geom.orient(H, M, X) == ot
                    checked += 1
        if checked >= 100:
            break
    assert checked >= 100


def test_point_in_closed():
    v = view_of(LPOLY)
    assert geom.point_in_closed(v, (1, 1))      # on boundary vertex
    assert geom.point_in_closed(v, (2, Fraction(1, 2)))
    assert not geom.point_in_closed(v, (2, 2))
    assert geom.point_in_closed(v, (Fraction(1, 2), 2))


def _notched_comb(k):
    """Clockwise comb whose k notches share one floor line (y = 2): rays
    along it run through collinear vertices and edges, and shallow rays
    from the corner cross dozens of notch walls."""
    top = [(4 * k, 9)]
    for i in reversed(range(k)):
        top += [(4 * i + 3, 2), (4 * i + 1, 2), (4 * i, 9)]
    return list(reversed([(0, 0), (4 * k, 0)] + top))


# interior points of generated 60-gons, (kind, seed, point), whose upward
# vertical ray first crosses the closing edge (n, 1)
CLOSING_EDGE_UP = [("random", 0, (47478, 21713)),
                   ("random", 4, (12123, 17506)),
                   ("random", 8, (48156, 18262)),
                   ("spiral", 33, (46688, 394))]


def test_bulk_and_scalar_ray_scans_agree(monkeypatch):
    # the int64 ray scan reports the same crossing as the exact scalar scan,
    # on views of 3 to 8 vertices and around 48, for vertex and point
    # targets, rays through collinear vertices and rays crossing many edges;
    # rays from free points (integer or Fraction) cross first where an exact
    # scan of all edges says, the closing edge (n, 1) included
    from polyws.oracle import generate
    cases = []
    for m in (3, 4, 5, 6, 7, 8, 39, 48, 150):
        for kind, seed in [("random", 0), ("comb", 1), ("spiral", 2)]:
            cases.append((generate(kind, m, seed), []))
    cases.append((BasePolygon(_notched_comb(60)), []))
    cases += [(generate(kind, 60, seed), [p])
              for kind, seed, p in CLOSING_EDGE_UP]
    most_hits = 0
    closing = 0
    for poly, roots in cases:
        v = SubpolygonView.whole(poly)
        rng = random.Random(v.m)
        pts = v.scan_points()
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        rays = []
        for _ in range(150):
            o = rng.randrange(1, v.m + 1)
            t = rng.randrange(1, v.m + 1)
            if t != o:
                rays.append((o, t))
            pt = (rng.randrange(min(xs), max(xs) + 1),
                  rng.randrange(min(ys), max(ys) + 1))
            if pt != pts[o - 1]:
                rays.append((o, pt))
            roots.append(pt)
        roots += [(p[0] + Fraction(1, 3), p[1]) for p in roots[:10]]
        for o in (1, 2, v.m):
            rays += [(o, t) for t in range(1, v.m + 1) if t != o]
        rays += [(v.m, (240, 3)), (v.m, (240, 5))]   # shallow, notched comb
        rays += [(p, (p[0], p[1] + d)) for p in roots for d in (1, -1)]
        for o, toward in rays:
            got = []
            for cutover in (0, 1 << 30):
                scan_cutover(monkeypatch, cutover)
                got.append((geom.ray_scan_light(v, o, toward),
                            geom._ray_scan(v, o, toward)))
            assert got[0] == got[1], (v.m, o, toward)
            light = got[0][0]
            if light is not None and light[0] == "edge":
                T = pts[toward - 1] if isinstance(toward, int) else toward
                hits = brute_ray_hits(list(pts), o, T)
                assert hits and Fraction(light[2], light[3]) == hits[0][0]
                assert light[1] == hits[0][1], (v.m, o, toward)
                most_hits = max(most_hits, len(hits))
                closing += isinstance(o, tuple) and light[1] == v.m
    assert most_hits > geom._RAY_LOOP_MAX   # the arrays-of-crossings branch
    assert closing >= len(CLOSING_EDGE_UP)


def _rational_twin(v):
    """View of the same ring as the integer view `v`, with every fifth vertex
    stored as a free point of Fraction coordinates: a multi-item view that
    always takes the exact scalar path."""
    from polyws.workspace import _ARC, _CUT, CutVertex
    items = []
    for i, (x, y) in enumerate(v.scan_points(), 1):
        if i % 5 == 3:
            items.append((_CUT, CutVertex(None, (Fraction(x), Fraction(y)),
                                          virtual=True)))
        else:
            items.append((_ARC, v.base_ref(i), 1))
    twin = SubpolygonView(v.base, items)
    assert not twin.all_int and len(twin.items) > 2
    return twin


def _light(hit):
    """ray_scan_light's answer with the parameter as one Fraction: the
    int64 kernels give it in lowest terms when it reads a rational vertex,
    the scalar kernel as a ratio of Fractions."""
    return hit if hit is None else hit[:2] + (Fraction(hit[2], hit[3]),)


def test_one_virtual_ray_scans_agree(monkeypatch):
    # on views with one rational vertex the int64 ray scans (loop and
    # arrays branch) mask its slot and settle it: they report the crossing
    # of the exact scalar scan, for vertex and point targets, from vertices
    # and from free points (integer or Fraction), the rational vertex at
    # slot 0, at slot m - 1 (its edges are then the closing edge and the
    # one before) and in the middle, crossings of its two edges and at the
    # vertex itself included
    from polyws.oracle import generate
    many = []
    scan_many = geom._ray_scan_many

    def counting(xs, ys, pts, origin, O, D, slot):
        many.append(slot)
        return scan_many(xs, ys, pts, origin, O, D, slot)
    monkeypatch.setattr(geom, "_ray_scan_many", counting)
    at_virtual = {"edge": 0, "vertex": 0, "closing": 0}
    for kind, seed in [("random", 1), ("comb", 2), ("spiral", 3)]:
        v = SubpolygonView.whole(generate(kind, 300, seed))
        views, q, P = one_virtual_twins(v, seed)
        for w in views:
            rng = random.Random(w.m)
            pts = w.scan_points()
            h = w.rational_slot + 1
            m = w.m
            xs = [int(p[0]) for p in pts]
            ys = [int(p[1]) for p in pts]
            near = [1 + (h - 1 + k) % m for k in (-2, -1, 1, 2)]
            rays = [(o, t) for o in near for t in range(1, m + 1, 4)
                    if t != o]
            for _ in range(100):
                o = rng.randrange(1, m + 1)
                t = rng.randrange(1, m + 1)
                if t != o:
                    rays.append((o, t))
                pt = (rng.randrange(min(xs), max(xs) + 1),
                      rng.randrange(min(ys), max(ys) + 1))
                if pt != pts[o - 1]:
                    rays.append((o, pt))
                rays.append((pt, (pt[0], pt[1] + 1)))
                rays.append((pt, pts[h - 1 + rng.choice((-1, 1 - m))]))
                rays.append(((pt[0] + Fraction(1, 3), pt[1]), o))
            if w.m == v.m + 1:
                # from q, where it sits on this ring, the ray crosses the
                # boundary exactly at H
                rays.append((q if q < h else q + 1, P))
            for r, (o, toward) in enumerate(rays):
                got = []
                for cutover in (0, 1 << 30):
                    scan_cutover(monkeypatch, cutover)
                    try:
                        got.append((_light(geom.ray_scan_light(w, o, toward)),
                                    geom._ray_scan(w, o, toward)))
                    except PolygonInputError:
                        got.append("degenerate")
                assert got[0] == got[1], (w.m, h, o, toward)
                light = got[0][0] if got[0] != "degenerate" else None
                if light is None:
                    continue
                settled = light[1] in (h - 1 or m, h)
                if light[:2] == ("vertex", h):
                    at_virtual["vertex"] += 1
                elif light[0] == "edge" and settled:
                    at_virtual["edge"] += 1
                    at_virtual["closing"] += light[1] == m
                if light[0] == "edge" and (settled or r % 8 == 0):
                    T = pts[toward - 1] if isinstance(toward, int) else toward
                    hits = brute_ray_hits(list(pts), o, T)
                    assert hits and light[2] == hits[0][0]
                    assert light[1] == hits[0][1], (w.m, o, toward)
    assert at_virtual["edge"] >= 50 and at_virtual["closing"] >= 10
    assert at_virtual["vertex"] >= 1
    # the arrays-of-crossings branch ran with the slot masked
    assert sum(slot is not None for slot in many) >= 20


def test_one_virtual_candidate_scans_and_links_agree(monkeypatch):
    # the int64 candidate scan of a view with one rational vertex lists the
    # scalar scan's candidates, for initial, narrowed and halved cones of
    # every vertex, those next to the rational vertex included: their
    # initial cone has a rational bound and takes the scalar scan, a cone
    # whose bound on that side has been replaced takes the int64 one; and
    # first_link gives the same answer on both paths
    from polyws import geodesic
    from polyws.oracle import generate
    bulk_next_to = 0
    for kind, seed in [("random", 4), ("comb", 5), ("spiral", 6)]:
        v = SubpolygonView.whole(generate(kind, 300, seed))
        views, _, _ = one_virtual_twins(v, seed)
        for w in views:
            m = w.m
            h = w.rational_slot + 1
            h_prev, h_next = h - 1 or m, h % m + 1
            pts = w.scan_points()
            rng = random.Random(m)
            cones = []
            for q in range(1, m + 1):
                if q == h:
                    continue
                cone = geodesic._initial_cone(w, q, pts)
                cones.append((q, cone))
                prev = rng.randrange(1, m + 1)
                if prev not in (q, h):
                    narrowed = geodesic._initial_cone(w, q, pts)
                    geodesic._narrow_past(narrowed, pts, q, prev)
                    cones.append((q, narrowed))
                if q not in (h_prev, h_next):
                    continue
                for r in rng.sample(range(1, m + 1), 12):
                    if r in (q, h):
                        continue
                    # the bound on the rational vertex's side turned to
                    # the direction of an integer vertex
                    half = geodesic._initial_cone(w, q, pts)
                    d = (pts[r - 1][0] - pts[q - 1][0],
                         pts[r - 1][1] - pts[q - 1][1])
                    if q == h_prev:
                        half.b, half.b_edge = d, False
                    else:
                        half.a, half.a_edge = d, False
                    try:
                        geodesic._cone_kind(half)
                    except InternalInvariantError:
                        continue
                    cones.append((q, half))
                    bulk_next_to += geom.uses_bulk("pick", w, q, half.a,
                                                   half.b)
            # cones with a bound through H's masked int64 slot, which the
            # strict cone test leaves out while H itself may lie inside
            fl = (math.floor(pts[h - 1][0]), math.floor(pts[h - 1][1]))
            for q in rng.sample(range(1, m + 1), 20):
                d = (fl[0] - pts[q - 1][0], fl[1] - pts[q - 1][1])
                if q in (h, h_prev, h_next) or d == (0, 0):
                    continue
                for side in "ab":
                    cone = geodesic._initial_cone(w, q, pts)
                    setattr(cone, side, d)
                    setattr(cone, side + "_edge", False)
                    try:
                        geodesic._cone_kind(cone)
                    except InternalInvariantError:
                        continue
                    cones.append((q, cone))
            for q, cone in cones:
                got = []
                for cutover in (0, 1 << 30):
                    scan_cutover(monkeypatch, cutover)
                    got.append(geodesic._sample_candidates(
                        w, q, cone, 10 ** 9, random.Random(0), pts))
                assert got[0] == got[1], (m, h, q, cone.a, cone.b)
            links = [(rng.randrange(1, m + 1), rng.randrange(1, m + 1))
                     for _ in range(40)]
            links += [(h_prev, t) for t in range(1, m + 1, 7)]
            for q, t in links:
                if q == t or h in (q, t):
                    continue
                got = []
                for cutover in (0, 1 << 30):
                    scan_cutover(monkeypatch, cutover)
                    got.append(geodesic.first_link(w, q, t,
                                                   random.Random(q * t)))
                assert got[0] == got[1], (m, h, q, t)
    assert bulk_next_to >= 6


def test_uses_bulk_reads_coordinates_only():
    # the int64 path runs whenever every coordinate a scan reads is an
    # integer, at any size; of a view with one rational vertex only the
    # candidate pick and the ray scan read int64 arrays
    from polyws.oracle import generate
    tri = view_of([(0, 0), (0, 2), (2, 0)])
    big = SubpolygonView.whole(generate("random", 300, 1))
    for v in (tri, big):
        assert geom.uses_bulk("pick", v, 1, (0, 1), (1, 0))
        assert geom.uses_bulk("ray", v, 1, 2)
        assert geom.uses_bulk("visible", v, 1, 2)
        assert geom.uses_bulk("point", v, (1, 1))
        assert geom.uses_bulk("reflex", v)
        assert not geom.uses_bulk("point", v, (Fraction(1, 2), 1))
        assert not geom.uses_bulk("ray", v, (Fraction(1, 2), 1), 2)
    for w in one_virtual_twins(big, 1)[0]:
        h = w.rational_slot + 1
        i, j = 1 + h % w.m, 1 + (h + 1) % w.m
        assert geom.uses_bulk("pick", w, i, (0, 1), (1, 0))
        assert geom.uses_bulk("ray", w, i, j)
        assert not geom.uses_bulk("ray", w, h, j)
        assert not geom.uses_bulk("visible", w, i, j)
        assert not geom.uses_bulk("point", w, (1, 1))
        assert not geom.uses_bulk("reflex", w)


def test_small_views_agree_on_both_paths(monkeypatch):
    # views of 3 to 10 vertices, integer and with one rational vertex, give
    # the same answers on the int64 path as on the scalar one: visibility of
    # every vertex pair, containment and point-to-vertex sight lines of
    # vertices and random points, the ray scans and first links of every
    # pair, candidate scans of initial and narrowed cones, and the reflex
    # search inside blocking and random triangles; edge hits are the first
    # crossings of an exact scan of every edge
    from polyws import geodesic
    from polyws.oracle import generate
    views = [SubpolygonView.whole(generate(kind, m, seed))
             for m in range(3, 9)
             for seed, kind in enumerate(("random", "comb", "spiral",
                                          "monotone"))]
    views += [view_of(SQUARE), view_of(LPOLY)]
    for n in (5, 6, 7, 8):
        for seed in (1, 2, 3):
            views += one_virtual_twins(
                SubpolygonView.whole(generate("random", n, seed)), seed,
                n // 2)[0]
    queries = []
    for w in views:
        m = w.m
        pts = w.scan_points()
        rng = random.Random(m)
        h = w.rational_slot + 1 if w.rational_slot is not None else 0
        xs = [int(p[0]) for p in pts]
        ys = [int(p[1]) for p in pts]
        points = [(rng.randrange(min(xs), max(xs) + 1),
                   rng.randrange(min(ys), max(ys) + 1)) for _ in range(40)]
        points += list(pts)
        pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)
                 if i != j]
        rays = pairs + [(p, j) for p in points[:20] for j in range(1, m + 1)
                        if p != pts[j - 1]]
        cones = []
        for q in range(1, m + 1):
            if q == h:
                continue
            cones.append((q, geodesic._initial_cone(w, q, pts)))
            for prev in range(1, m + 1):
                if prev not in (q, h):
                    cone = geodesic._initial_cone(w, q, pts)
                    geodesic._narrow_past(cone, pts, q, prev)
                    cones.append((q, cone))
        blocked = []
        for q, t in pairs:
            vq, vt = pts[q - 1], pts[t - 1]
            if q == h or geom.is_visible(w, q, t) or not dir_in_interior_wedge(
                    w, q, (vt[0] - vq[0], vt[1] - vq[1])):
                continue
            hit = geom.ray_shoot(w, q, t)
            if hit.edge is None:
                continue
            for pn in (hit.edge, 1 + hit.edge % m):
                if pn != q and not geom.is_visible(w, q, pn) and geom.orient(
                        vq, pts[pn - 1], hit.point) != geom.COLLINEAR:
                    blocked.append((q, pn, hit.point))
        # and triangles on a vertex pair and a random point
        blocked += [(q, t, p) for q, t in pairs for p in points[:3]
                    if geom.orient(pts[q - 1], pts[t - 1], p)]
        queries.append((w, points, pairs, rays, cones, blocked))

    def answers():
        out = []
        for w, points, pairs, rays, cones, blocked in queries:
            inside = [p for p in points if geom.point_in_closed(w, p)]
            links = [(q, t) for q, t in pairs
                     if w.rational_slot not in (q - 1, t - 1)]
            out.append((
                [geom.is_visible(w, i, j) for i, j in pairs],
                [geom.point_in_closed(w, p) for p in points],
                [geom.point_sees_vertex(w, p, j) for p in inside
                 for j in range(1, w.m + 1)],
                [_light(geom.ray_scan_light(w, o, t)) for o, t in rays],
                [geodesic._sample_candidates(w, q, cone, 10 ** 9,
                                             random.Random(0), None)
                 for q, cone in cones],
                [geodesic.first_link(w, q, t, random.Random(q * t))
                 for q, t in links],
                [geom.max_angle_reflex_in_triangle(w, *b) for b in blocked]))
        return out
    got = answers()
    scan_cutover(monkeypatch, 1 << 30)
    assert answers() == got
    crossings = 0
    for (w, _, _, rays, _, _), ans in zip(queries, got):
        pts = w.scan_points()
        for (o, t), light in zip(rays, ans[3]):
            if light is not None and light[0] == "edge":
                T = pts[t - 1] if isinstance(t, int) else t
                hits = brute_ray_hits(list(pts), o, T)
                assert hits[0][:2] == (light[2], light[1]), (w.m, o, t)
                crossings += 1
    assert crossings >= 100


def test_bulk_and_scalar_visibility_and_containment_agree(monkeypatch):
    # is_visible, point_in_closed, the reflex search inside a blocking
    # triangle and point-to-vertex visibility give the same answers on the
    # int64 and the scalar path, including points on edges and at vertices,
    # and the same again on a rational twin of each view
    from polyws.oracle import generate
    views = [SubpolygonView.whole(generate(kind, 120, seed))
             for kind, seed in [("random", 4), ("comb", 5), ("spiral", 6)]]
    views.append(view_of(_notched_comb(30)))
    searches = 0
    for v in views:
        rng = random.Random(v.m)
        pts = v.scan_points()
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        pairs = [(rng.randrange(1, v.m + 1), rng.randrange(1, v.m + 1))
                 for _ in range(300)]
        pairs = [(i, j) for i, j in pairs if i != j]
        points = [(rng.randrange(min(xs) - 1, max(xs) + 2),
                   rng.randrange(min(ys) - 1, max(ys) + 2))
                  for _ in range(300)]
        points += list(pts[:20])
        points += [((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
                   for a, b in zip(pts, pts[1:])]
        blocked = []
        for q, t in pairs:
            vq, vt = pts[q - 1], pts[t - 1]
            if geom.is_visible(v, q, t) or not dir_in_interior_wedge(
                    v, q, (vt[0] - vq[0], vt[1] - vq[1])):
                continue
            hit = geom.ray_shoot(v, q, t)
            if hit.edge is None:
                continue
            for pn in (hit.edge, 1 + hit.edge % v.m):
                if pn != q and not geom.is_visible(v, q, pn) and geom.orient(
                        vq, pts[pn - 1], hit.point) != geom.COLLINEAR:
                    blocked.append((q, pn, hit.point))
                    blocked.append((vq, pn, hit.point))
        inside = [p for p in points if geom.point_in_closed(v, p)]
        sights = [(p, rng.randrange(1, v.m + 1)) for p in inside[:60]]
        sights += [(p, j) for p in inside[:2] for j in range(1, v.m + 1)]

        def answers(w):
            return ([geom.is_visible(w, i, j) for i, j in pairs],
                    [geom.point_in_closed(w, p) for p in points],
                    [geom.max_angle_reflex_in_triangle(w, *b)
                     for b in blocked],
                    [geom.point_sees_vertex(w, p, j) for p, j in sights])
        got = []
        for cutover in (0, 1 << 30):
            scan_cutover(monkeypatch, cutover)
            got.append(answers(v))
        got.append(answers(_rational_twin(v)))
        assert got[0] == got[1] == got[2]
        assert any(got[0][3]) and not all(got[0][3])
        assert any(got[0][0]) and not all(got[0][0])
        assert any(got[0][1]) and not all(got[0][1])
        searches += len(blocked)
    assert searches >= 20


def _point_sees_vertex_reference(view, p, j):
    """Reference for geom.point_sees_vertex: the segment from p to vertex j
    against every vertex and edge of the view, with four orientation tests
    per vertex, then its midpoint against the closed polygon."""
    pts = view.scan_points()
    m = len(pts)
    b = pts[j - 1]
    if p == b:
        return True
    pv = pts[m - 1]
    for k in range(1, m + 1):
        cv = pts[k - 1]
        if k != j and cv != p and cv != b \
                and geom.on_closed_segment(cv, p, b):
            # the segment passes through vertex k: blocked when k's
            # neighbors lie strictly on opposite sides of it
            kp = pts[k - 2]
            kn = pts[k % m]
            if geom.orient(p, b, kp) * geom.orient(p, b, kn) < 0:
                return False
        if geom.segments_properly_intersect(p, b, pv, cv):
            return False
        pv = cv
    mid = (Fraction(p[0] + b[0], 2), Fraction(p[1] + b[1], 2))
    return geom.point_in_closed(view, mid)


def test_point_sees_vertex_matches_reference(monkeypatch):
    # point_sees_vertex runs is_visible's kernels with a free first
    # endpoint: it agrees with the per-vertex reference, and with
    # is_visible when p is vertex i, on the int64 and the scalar path and on
    # a rational twin of each view; points include vertices, points on
    # edges, on the notched comb's floor line and with Fraction coordinates
    from polyws.oracle import generate
    views = [SubpolygonView.whole(generate(kind, m, seed))
             for kind, m, seed in [("random", 90, 1), ("comb", 150, 2),
                                   ("spiral", 140, 3), ("monotone", 160, 4)]]
    views.append(view_of(_notched_comb(30)))
    blocked_through = 0
    for v in views:
        rng = random.Random(v.m)
        pts = v.scan_points()
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        cands = [(rng.randrange(min(xs), max(xs) + 1),
                  rng.randrange(min(ys), max(ys) + 1)) for _ in range(200)]
        cands += [((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
                  for a, b in zip(pts, pts[1:])][:40]
        cands += [(x, 2) for x in range(0, 121, 3)]
        cands += [(Fraction(a[0] + b[0], 2), Fraction(a[1] + b[1], 2))
                  for a, b in zip(pts[::7], pts[3::7])]
        inside = [p for p in cands if geom.point_in_closed(v, p)]
        sights = [(p, rng.randrange(1, v.m + 1)) for p in inside]
        sights += [(p, j) for p in inside[:2] for j in range(1, v.m + 1)]
        verts = [(rng.randrange(1, v.m + 1), rng.randrange(1, v.m + 1))
                 for _ in range(150)]
        verts = [(i, j) for i, j in verts if i != j]
        verts += [(1, j) for j in range(2, v.m + 1)]
        want = [_point_sees_vertex_reference(v, p, j) for p, j in sights]
        assert any(want) and not all(want)
        # sight lines through vertex c at their midpoint p/2 + b/2, on the
        # view that starts after c: c is its last slot
        through = []
        for c in range(1, v.m + 1):
            for b in rng.sample(range(1, v.m + 1), 4):
                p = (2 * pts[c - 1][0] - pts[b - 1][0],
                     2 * pts[c - 1][1] - pts[b - 1][1])
                if b != c and p not in pts and geom.point_in_closed(v, p):
                    rot = SubpolygonView.whole(v.base, start=c % v.m + 1)
                    through.append((rot, p, (b - c - 1) % v.m + 1))
        want_through = [_point_sees_vertex_reference(*t) for t in through]
        blocked_through += want_through.count(False)
        for w in (v, _rational_twin(v)):
            for cutover in (0, 1 << 30):
                scan_cutover(monkeypatch, cutover)
                assert [geom.point_sees_vertex(w, p, j)
                        for p, j in sights] == want
                assert [geom.point_sees_vertex(w, pts[i - 1], j)
                        for i, j in verts] == \
                    [geom.is_visible(w, i, j) for i, j in verts]
                assert [geom.point_sees_vertex(*t)
                        for t in through] == want_through
    assert blocked_through >= 10
