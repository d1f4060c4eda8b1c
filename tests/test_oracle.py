"""Ground-truth machinery: generators, reference geodesics/trees, validators."""
import random

from polyws import geom
from polyws.oracle import (check_simple, generate, ref_geodesic, ref_spt,
                           validate_partition, validate_triangulation)
from polyws.workspace import BasePolygon, SubpolygonView

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


def test_generators_simple_and_deterministic():
    for kind in ("random", "convex", "comb", "spiral", "monotone"):
        p1 = generate(kind, 26, 5)
        p2 = generate(kind, 26, 5)
        assert p1.points() == p2.points(), kind
        assert check_simple(p1.points()).ok, kind
        # clockwise orientation
        assert p1.signed_area2() < 0, kind


def test_convex_has_no_reflex():
    poly = generate("convex", 8, 1)
    v = SubpolygonView.whole(poly)
    assert not any(geom.is_reflex(v, i) for i in range(1, 9))


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
