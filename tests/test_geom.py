"""Predicate and boundary-scan tests, including brute-force cross-checks."""
import math
import random
from fractions import Fraction

import pytest

import scan_oracles
from conftest import (dir_in_interior_wedge, one_virtual_twins,
                      two_virtual_twins)
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
                    # (a rational corner, which the search takes) the
                    # answer (or p_n when the smaller triangle holds no
                    # reflex vertex) is visible by the exact oracle, reflex
                    # and inside
                    assert geom.max_angle_reflex_in_triangle(v, A, pn, H) == r
                    M = (Fraction(A[0] + H[0], 2), Fraction(A[1] + H[1], 2))
                    rm = geom.max_angle_reflex_in_triangle(v, M, pn, H)
                    if rm is None:
                        assert scan_oracles.visible(v, 0, M, pn)
                    else:
                        assert scan_oracles.visible(v, 0, M, rm)
                        assert geom.is_reflex(v, rm)
                        X = v.point(rm)
                        assert geom.orient(M, P, X) == ot
                        assert geom.orient(P, H, X) == ot
                        assert geom.orient(H, M, X) == ot
                    checked += 1
        if checked >= 100:
            break
    assert checked >= 100


def test_scans_refuse_what_the_int64_kernels_cannot_read():
    # every public scan refuses a free point that is not an integer point;
    # on a view with a rational vertex, visibility, containment and the
    # reflex search refuse the view, and the ray scans and the cone refuse
    # that vertex as an end or an apex
    from polyws.geodesic import _initial_cone
    from polyws.oracle import generate
    v = view_of(LPOLY)
    for p in [(Fraction(1, 2), 1), (1, Fraction(5, 3)), (0.5, 1)]:
        for scan, args in [(geom.point_in_closed, (v, p)),
                           (geom.point_sees_vertex, (v, p, 2)),
                           (geom.ray_shoot, (v, p, 2)),
                           (geom.ray_scan_light, (v, p, 2)),
                           (geom.ray_shoot, (v, 1, p)),
                           (geom.ray_scan_light, (v, 1, p))]:
            with pytest.raises(PolygonInputError):
                scan(*args)
    w = one_virtual_twins(SubpolygonView.whole(generate("random", 60, 1)),
                          1, 30)[0][0]
    h = w.rational_slots[0] + 1
    i, j = 1 + h % w.m, 1 + (h + 2) % w.m
    x, y = w.point(i)
    for scan, args in [(geom.is_visible, (w, i, j)),
                       (geom.point_in_closed, (w, (x, y))),
                       (geom.point_sees_vertex, (w, (x, y), j)),
                       (geom.max_angle_reflex_in_triangle,
                        (w, i, j, w.point(h))),
                       (geom.ray_shoot, (w, h, j)),
                       (geom.ray_scan_light, (w, i, h)),
                       (_initial_cone, (w, h))]:
        with pytest.raises(InternalInvariantError):
            scan(*args)


def test_point_in_closed():
    # integer points, a Fraction of denominator 1 among them; a non-integer
    # point is refused, and the exact oracle places it
    v = view_of(LPOLY)
    assert geom.point_in_closed(v, (1, 1))      # on boundary vertex
    assert not geom.point_in_closed(v, (2, 2))
    assert geom.point_in_closed(v, (Fraction(2), Fraction(0)))
    for p in [(2, Fraction(1, 2)), (Fraction(1, 2), 2)]:
        with pytest.raises(PolygonInputError):
            geom.point_in_closed(v, p)
        assert scan_oracles.point_in_ring(v.scan_points(), p)


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


def test_bulk_and_scalar_ray_scans_agree():
    # the int64 ray scan reports the crossing of the exact scalar oracle,
    # on views of 3 to 8 vertices and around 48, for vertex and point
    # targets, rays through collinear vertices and rays crossing many edges;
    # rays from integer free points cross first where an exact scan of all
    # edges says, the closing edge (n, 1) included; a non-integer origin is
    # refused, and the oracle's first crossing from it is the exact scan's
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
    refused = 0
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
            want = scan_oracles.ray_hit(v, o, toward)
            if isinstance(o, tuple) and isinstance(o[0], Fraction):
                for scan in (geom.ray_scan_light, geom._ray_scan):
                    with pytest.raises(PolygonInputError):
                        scan(v, o, toward)
                refused += 1
            else:
                assert _light(geom.ray_scan_light(v, o, toward)) == \
                    scan_oracles.light(want), (v.m, o, toward)
                assert geom._ray_scan(v, o, toward) == want
            if want is not None and want.edge is not None:
                T = pts[toward - 1] if isinstance(toward, int) else toward
                hits = brute_ray_hits(list(pts), o, T)
                assert hits and want.ray_t == hits[0][0]
                assert want.edge == hits[0][1], (v.m, o, toward)
                most_hits = max(most_hits, len(hits))
                closing += isinstance(o, tuple) and want.edge == v.m
    assert most_hits > geom._RAY_LOOP_MAX   # the arrays-of-crossings branch
    assert closing >= len(CLOSING_EDGE_UP)
    assert refused >= 100


def _rational_twin(v):
    """View of the same ring as the integer view `v`, with every fifth vertex
    stored as a free point of Fraction coordinates of denominator 1: a
    multi-item view that counts those vertices as integer points, as its
    rule has it."""
    from polyws.workspace import _ARC, _CUT, CutVertex
    items = []
    for i, (x, y) in enumerate(v.scan_points(), 1):
        if i % 5 == 3:
            items.append((_CUT, CutVertex(None, (Fraction(x), Fraction(y)),
                                          virtual=True)))
        else:
            items.append((_ARC, v.base_ref(i), 1))
    twin = SubpolygonView(v.base, items)
    assert twin.all_int and len(twin.items) > 2
    return twin


def _light(hit):
    """ray_scan_light's answer with the parameter as one Fraction: the
    int64 kernel gives it in lowest terms when it reads a rational vertex."""
    return hit if hit is None else hit[:2] + (Fraction(hit[2], hit[3]),)


def _refusal(w, o, toward):
    """The error a ray scan of `w` raises for these ends, None when it scans:
    an end at a rational vertex is an internal error, a non-integer free
    point a refused input; the target is read first."""
    for end in (toward, o):
        if isinstance(end, int):
            if end - 1 in w.rational_slots:
                return InternalInvariantError
        elif end[0].denominator != 1 or end[1].denominator != 1:
            return PolygonInputError
    return None


def _check_virtual_ray_scans(monkeypatch, cases):
    """The int64 ray scans (loop and arrays branch) of views with rational
    vertices mask their slots and settle them: they report the oracle's
    crossing, for vertex and point targets, from vertices and from integer
    free points, crossings of the rational vertices' edges and at the
    vertices themselves included; a ray with an end at a rational vertex or
    at a non-integer point is refused, and the oracle's edge crossings are
    those of an exact scan of every edge.  `cases` holds (view, extra rays);
    returns the counts of crossings at the rational vertices and of arrays
    scans with slots masked."""
    many = []
    scan_many = geom._ray_scan_many

    def counting(xs, ys, pts, origin, O, D, rational):
        many.append(rational)
        return scan_many(xs, ys, pts, origin, O, D, rational)
    monkeypatch.setattr(geom, "_ray_scan_many", counting)
    at_virtual = {"edge": 0, "vertex": 0, "closing": 0, "refused": 0}
    for w, extra in cases:
        rng = random.Random(w.m)
        pts = w.scan_points()
        hs = [k + 1 for k in w.rational_slots]
        m = w.m
        xs = [int(p[0]) for p in pts]
        ys = [int(p[1]) for p in pts]
        near = sorted({1 + (h - 1 + k) % m for h in hs for k in (-2, -1, 1, 2)}
                      - set(hs))
        rays = [(o, t) for o in near for t in range(1, m + 1, 4) if t != o]
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
            h = rng.choice(hs)
            rays.append((pt, pts[h - 1 + rng.choice((-1, 1 - m))]))
            rays.append(((pt[0] + Fraction(1, 3), pt[1]), o))
        rays += extra
        for r, (o, toward) in enumerate(rays):
            O = pts[o - 1] if isinstance(o, int) else o
            T = pts[toward - 1] if isinstance(toward, int) else toward
            if O == T:
                continue
            want = scan_oracles.ray_hit(w, o, toward)
            refusal = _refusal(w, o, toward)
            if refusal is not None:
                for scan in (geom.ray_scan_light, geom._ray_scan):
                    with pytest.raises(refusal):
                        scan(w, o, toward)
                at_virtual["refused"] += 1
            else:
                assert _light(geom.ray_scan_light(w, o, toward)) == \
                    scan_oracles.light(want), (w.m, hs, o, toward)
                assert geom._ray_scan(w, o, toward) == want
            if want is None:
                continue
            settled = want.edge is not None and any(
                want.edge in (h - 1 or m, h) for h in hs)
            if refusal is None:
                if want.vertex in hs:
                    at_virtual["vertex"] += 1
                elif settled:
                    at_virtual["edge"] += 1
                    at_virtual["closing"] += want.edge == m
            if want.edge is not None and (settled or r % 8 == 0):
                hits = brute_ray_hits(list(pts), o, T)
                assert hits and want.ray_t == hits[0][0]
                assert want.edge == hits[0][1], (w.m, o, toward)
    at_virtual["many"] = sum(bool(rational) for rational in many)
    return at_virtual


def test_one_virtual_ray_scans_agree(monkeypatch):
    # views with one rational vertex, at slot 0, at slot m - 1 (its edges
    # are then the closing edge and the one before) and in the middle;
    # straight in v's own ring, where the ray from q toward P crosses the
    # boundary exactly at it
    from polyws.oracle import generate
    cases = []
    for kind, seed in [("random", 1), ("comb", 2), ("spiral", 3)]:
        v = SubpolygonView.whole(generate(kind, 300, seed))
        views, q, P = one_virtual_twins(v, seed)
        for w in views:
            h = w.rational_slots[0] + 1
            cases.append((w, [(q if q < h else q + 1, P)]
                          if w.m == v.m + 1 else []))
    got = _check_virtual_ray_scans(monkeypatch, cases)
    assert got["edge"] >= 50 and got["closing"] >= 10
    assert got["vertex"] >= 1 and got["refused"] >= 300
    # the arrays-of-crossings branch ran with the slot masked
    assert got["many"] >= 20


def test_two_virtual_ray_scans_agree(monkeypatch):
    # views with two rational vertices: an SPT-like piece closed by a
    # virtual vertex and holding another, which may be its neighbor, and
    # two straight ones in one edge or in two
    from polyws.oracle import generate
    cases = []
    for kind, seed in [("random", 1), ("comb", 2), ("spiral", 3)]:
        v = SubpolygonView.whole(generate(kind, 300, seed))
        views, q, P = two_virtual_twins(v, seed)
        for w in views:
            ring = w.scan_points()
            cases.append((w, [(ring.index(v.point(q)) + 1, P)]
                          if v.point(q) in ring else []))
    got = _check_virtual_ray_scans(monkeypatch, cases)
    assert got["edge"] >= 50 and got["closing"] >= 10
    assert got["vertex"] >= 1 and got["refused"] >= 300
    assert got["many"] >= 20


def _exact_cone(w, q, pts):
    """q's initial cone with its bounds as exact, maybe rational, vectors."""
    from polyws.geodesic import Cone
    m = w.m
    (qx, qy), (px, py), (nx, ny) = pts[q - 1], pts[(q - 2) % m], pts[q % m]
    return Cone((px - qx, py - qy), (nx - qx, ny - qy))


def _long_bounds(w, pts):
    """The ring neighbors q of w's rational vertices whose direction toward
    one has no integer multiple with components below 2**36, within the
    int64 candidate scan's reach: q's cone is refused.  The library's
    virtual vertices lie on a line through each neighbor and another
    integer point; one_virtual_twins' vertex moved off the lattice does
    not."""
    m = w.m
    out = set()
    for k in w.rational_slots:
        for q in (1 + (k - 1) % m, 1 + (k + 1) % m):
            dx = Fraction(pts[k][0] - pts[q - 1][0])
            dy = Fraction(pts[k][1] - pts[q - 1][1])
            d = math.lcm(dx.denominator, dy.denominator)
            g = math.gcd(int(dx * d), int(dy * d))
            if max(abs(dx), abs(dy)) * d / g >= 1 << 36:
                out.add(q)
    return out


def _reflex_rational(w, pts):
    """True when one of w's rational vertices is reflex, so that a search
    may shoot at it, which the ray scans refuse; the library's virtual
    vertices split an edge and are convex or straight."""
    m = w.m
    return any(geom.orient(pts[k - 1], pts[k], pts[(k + 1) % m])
               == geom.COUNTERCLOCKWISE for k in w.rational_slots)


def test_one_virtual_candidate_scans_and_links_agree(monkeypatch):
    # the int64 candidate scan of a view with one or two rational vertices
    # lists the oracle's candidates, for initial, narrowed and halved cones
    # of every vertex, those next to a rational vertex included: their
    # initial cone bound toward it is its primitive integer direction, and
    # the scan lists what the oracle lists for the exact rational bound; a
    # reflex rational vertex's neighbors are refused; and first_link gives
    # the same answer with the int64 kernels as with the oracles
    from polyws import geodesic
    from polyws.oracle import generate
    next_to = refused = 0
    for kind, seed in [("random", 4), ("comb", 5), ("spiral", 6)]:
        v = SubpolygonView.whole(generate(kind, 300, seed))
        views = one_virtual_twins(v, seed)[0] + two_virtual_twins(v, seed)[0]
        for w in views:
            m = w.m
            hs = [k + 1 for k in w.rational_slots]
            pts = w.scan_points()
            long_bound = _long_bounds(w, pts)
            rng = random.Random(m)
            cones = []
            for q in range(1, m + 1):
                if q in hs:
                    with pytest.raises(InternalInvariantError):
                        geodesic._initial_cone(w, q, pts)
                    continue
                if q in long_bound:
                    with pytest.raises(InternalInvariantError):
                        geodesic._initial_cone(w, q, pts)
                    refused += 1
                    continue
                cone = geodesic._initial_cone(w, q, pts)
                exact = _exact_cone(w, q, pts)
                assert geodesic._candidate_scan(w, q, cone, pts) == \
                    scan_oracles.candidate_scan(w, q, exact, pts), (m, q)
                next_to += (cone.a, cone.b) != (exact.a, exact.b)
                cones.append((q, cone))
                prev = rng.randrange(1, m + 1)
                if prev != q and prev not in hs:
                    narrowed = geodesic._initial_cone(w, q, pts)
                    geodesic._narrow_past(narrowed, pts, q, prev)
                    cones.append((q, narrowed))
                if not any((q - h) % m in (1, m - 1) for h in hs):
                    continue
                for r in rng.sample(range(1, m + 1), 12):
                    if r == q or r in hs:
                        continue
                    # a bound beside the rational vertex turned to the
                    # direction of an integer vertex
                    for side in "ab":
                        half = geodesic._initial_cone(w, q, pts)
                        setattr(half, side, (pts[r - 1][0] - pts[q - 1][0],
                                             pts[r - 1][1] - pts[q - 1][1]))
                        setattr(half, side + "_edge", False)
                        try:
                            geodesic._cone_kind(half)
                        except InternalInvariantError:
                            continue
                        cones.append((q, half))
            # cones with a bound through a rational vertex's masked int64
            # slot, which the strict cone test leaves out while the vertex
            # itself may lie inside
            for h in hs:
                fl = (math.floor(pts[h - 1][0]), math.floor(pts[h - 1][1]))
                for q in rng.sample(range(1, m + 1), 20):
                    d = (fl[0] - pts[q - 1][0], fl[1] - pts[q - 1][1])
                    if q in hs or q in long_bound or d == (0, 0):
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
                assert geodesic._candidate_scan(w, q, cone, pts) == \
                    scan_oracles.candidate_scan(w, q, cone, pts), \
                    (m, hs, q, cone.a, cone.b)
            if _reflex_rational(w, pts):
                continue
            links = [(rng.randrange(1, m + 1), rng.randrange(1, m + 1))
                     for _ in range(40)]
            links += [(1 + (h - 2) % m, t) for h in hs
                      for t in range(1, m + 1, 7)]
            for q, t in links:
                if q == t or q in hs:
                    continue
                got = []
                for cutover in (0, 1 << 30):
                    scan_oracles.use_oracles_below(monkeypatch, cutover)
                    got.append(geodesic.first_link(w, q, t,
                                                   random.Random(q * t)))
                assert got[0] == got[1], (m, hs, q, t)
    assert next_to >= 60 and refused >= 6


def test_small_views_agree_on_both_paths(monkeypatch):
    # views of 3 to 10 vertices, integer and with one rational vertex, give
    # the oracles' answers: visibility of every vertex pair, containment and
    # point-to-vertex sight lines of vertices and random points (on integer
    # views), the ray scans of every pair and from random points, candidate
    # scans of initial and narrowed cones, first links with the int64
    # kernels and with the oracles (on views whose rational vertex is not
    # reflex, as the library's are not), and the reflex search inside
    # blocking and random triangles; edge hits are the first crossings of
    # an exact scan of every edge
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
    crossings = 0
    for w in views:
        m = w.m
        pts = w.scan_points()
        rng = random.Random(m)
        hs = [k + 1 for k in w.rational_slots]
        long_bound = _long_bounds(w, pts)
        xs = [int(p[0]) for p in pts]
        ys = [int(p[1]) for p in pts]
        points = [(rng.randrange(min(xs), max(xs) + 1),
                   rng.randrange(min(ys), max(ys) + 1)) for _ in range(40)]
        if w.all_int:
            points += list(pts)
        pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)
                 if i != j]
        rays = [(o, t) for o, t in pairs if o not in hs and t not in hs]
        rays += [(p, j) for p in points[:20] for j in range(1, m + 1)
                 if p != pts[j - 1] and j not in hs]
        for o, t in rays:
            want = scan_oracles.ray_hit(w, o, t)
            assert _light(geom.ray_scan_light(w, o, t)) == \
                scan_oracles.light(want), (m, o, t)
            if want is not None and want.edge is not None:
                T = pts[t - 1] if isinstance(t, int) else t
                hits = brute_ray_hits(list(pts), o, T)
                assert hits[0][:2] == (want.ray_t, want.edge), (m, o, t)
                crossings += 1
        for q in range(1, m + 1):
            if q in hs or q in long_bound:
                continue
            cones = [geodesic._initial_cone(w, q, pts)]
            for prev in range(1, m + 1):
                if prev != q and prev not in hs:
                    cone = geodesic._initial_cone(w, q, pts)
                    geodesic._narrow_past(cone, pts, q, prev)
                    cones.append(cone)
            for cone in cones:
                assert geodesic._sample_candidates(
                    w, q, cone, 10 ** 9, random.Random(0), None) == (
                        scan_oracles.candidate_scan(w, q, cone), True)
        if not _reflex_rational(w, pts):
            for q, t in pairs:
                if q in hs or q in long_bound:
                    continue
                got = []
                for cutover in (0, 1 << 30):
                    scan_oracles.use_oracles_below(monkeypatch, cutover)
                    got.append(geodesic.first_link(w, q, t,
                                                   random.Random(q * t)))
                assert got[0] == got[1], (m, q, t)
            monkeypatch.undo()
        if not w.all_int:
            continue
        inside = [p for p in points if geom.point_in_closed(w, p)]
        assert [geom.is_visible(w, i, j) for i, j in pairs] == \
            [scan_oracles.visible(w, i, None, j) for i, j in pairs]
        assert [geom.point_in_closed(w, p) for p in points] == \
            [scan_oracles.point_in_ring(pts, p) for p in points]
        assert [geom.point_sees_vertex(w, p, j) for p in inside
                for j in range(1, m + 1)] == \
            [scan_oracles.visible(w, 0, p, j) for p in inside
             for j in range(1, m + 1)]
        blocked = []
        for q, t in pairs:
            vq, vt = pts[q - 1], pts[t - 1]
            if geom.is_visible(w, q, t) or not dir_in_interior_wedge(
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
        assert [geom.max_angle_reflex_in_triangle(w, *b) for b in blocked] \
            == [scan_oracles.max_angle_reflex(w, *b) for b in blocked]
    assert crossings >= 100


def test_bulk_and_scalar_visibility_and_containment_agree():
    # is_visible, point_in_closed, the reflex search inside a blocking
    # triangle and point-to-vertex visibility give the oracles' answers,
    # including points on edges and at vertices and sight lines that run
    # through third vertices (the notched comb's floor line), and the same
    # again on a twin of each view that stores some vertices as Fractions
    # of denominator 1
    from polyws.oracle import generate
    views = [SubpolygonView.whole(generate(kind, 120, seed))
             for kind, seed in [("random", 4), ("comb", 5), ("spiral", 6)]]
    views.append(view_of(_notched_comb(30)))
    searches = through = 0
    for v in views:
        rng = random.Random(v.m)
        pts = v.scan_points()
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        pairs = [(rng.randrange(1, v.m + 1), rng.randrange(1, v.m + 1))
                 for _ in range(300)]
        floor = [k for k in range(1, v.m + 1) if pts[k - 1][1] == 2]
        pairs += [(i, j) for i in floor[::3] for j in floor]
        pairs = [(i, j) for i, j in pairs if i != j]
        through += sum(any(
            k not in (i, j) and geom.orient(pts[i - 1], pts[j - 1],
                                            pts[k - 1]) == geom.COLLINEAR
            and min(pts[i - 1][0], pts[j - 1][0]) < pts[k - 1][0]
            < max(pts[i - 1][0], pts[j - 1][0]) for k in floor)
            for i, j in pairs if i in floor and j in floor)
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
        want = ([scan_oracles.visible(v, i, None, j) for i, j in pairs],
                [scan_oracles.point_in_ring(pts, p) for p in points],
                [scan_oracles.max_angle_reflex(v, *b) for b in blocked],
                [scan_oracles.visible(v, 0, p, j) for p, j in sights])
        for w in (v, _rational_twin(v)):
            assert ([geom.is_visible(w, i, j) for i, j in pairs],
                    [geom.point_in_closed(w, p) for p in points],
                    [geom.max_angle_reflex_in_triangle(w, *b)
                     for b in blocked],
                    [geom.point_sees_vertex(w, p, j) for p, j in sights]) \
                == want
        assert any(want[3]) and not all(want[3])
        assert any(want[0]) and not all(want[0])
        assert any(want[1]) and not all(want[1])
        searches += len(blocked)
    assert searches >= 20
    assert through >= 100


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
    return scan_oracles.point_in_ring(pts, (p[0] + b[0], p[1] + b[1]), 2)


def test_point_sees_vertex_matches_reference():
    # point_sees_vertex runs is_visible's kernel with a free first
    # endpoint: it agrees with the per-vertex reference and the oracle, and
    # with is_visible when p is vertex i, also on a twin of each view that
    # stores some vertices as Fractions of denominator 1; points include
    # vertices, points on edges and on the notched comb's floor line; a
    # point with non-integer coordinates is refused, and the oracle agrees
    # with the reference there
    from polyws.oracle import generate
    views = [SubpolygonView.whole(generate(kind, m, seed))
             for kind, m, seed in [("random", 90, 1), ("comb", 150, 2),
                                   ("spiral", 140, 3), ("monotone", 160, 4)]]
    views.append(view_of(_notched_comb(30)))
    blocked_through = refused = 0
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
        inside = [p for p in cands if scan_oracles.point_in_ring(pts, p)]
        sights = [(p, rng.randrange(1, v.m + 1)) for p in inside]
        sights += [(p, j) for p in inside[:2] for j in range(1, v.m + 1)]
        verts = [(rng.randrange(1, v.m + 1), rng.randrange(1, v.m + 1))
                 for _ in range(150)]
        verts = [(i, j) for i, j in verts if i != j]
        verts += [(1, j) for j in range(2, v.m + 1)]
        want = [_point_sees_vertex_reference(v, p, j) for p, j in sights]
        assert any(want) and not all(want)
        assert [scan_oracles.visible(v, 0, p, j) for p, j in sights] == want
        integer = [p[0].denominator == p[1].denominator == 1
                   for p, _ in sights]
        refused += integer.count(False)
        for (p, j), ok in zip(sights, integer):
            if not ok:
                with pytest.raises(PolygonInputError):
                    geom.point_sees_vertex(v, p, j)
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
            assert [geom.point_sees_vertex(w, p, j)
                    for (p, j), ok in zip(sights, integer) if ok] == \
                [a for a, ok in zip(want, integer) if ok]
            assert [geom.point_sees_vertex(w, pts[i - 1], j)
                    for i, j in verts] == \
                [geom.is_visible(w, i, j) for i, j in verts]
        assert [geom.point_sees_vertex(*t) for t in through] == want_through
    assert blocked_through >= 10 and refused >= 10
