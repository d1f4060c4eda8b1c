"""Shared fixtures: a polygon cache (generation is the slow part of the
acceptance suite), a terminal summary that echoes one line per acceptance
criterion, and the views with one and with two virtual vertices that the
scan, link and ear-clipping tests share.  The exact scalar scans that the
int64 kernels are compared with are in scan_oracles.py."""
import random
from fractions import Fraction

import pytest

from polyws import geom
from polyws.oracle import check_simple, generate
from polyws.workspace import CutVertex

_POLY_CACHE = {}
ACCEPTANCE_LINES = []


def cached_polygon(kind, n, seed):
    key = (kind, n, seed)
    if key not in _POLY_CACHE:
        _POLY_CACHE[key] = generate(kind, n, seed)
    return _POLY_CACHE[key]


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def separates(i, j, m):
    """True iff vertices 1 and floor(m/2) fall in different components of the
    boundary split at i and j: the reference for workspace.is_alternating on
    pairs that touch neither."""
    mid = m // 2
    if i in (1, mid) or j in (1, mid):
        raise ValueError("separates: the pair touches an endpoint")
    inside = 0
    for special in (1, mid):
        off = (special - i) % m
        if 0 < off < (j - i) % m:
            inside += 1
    return inside == 1


def dir_in_interior_wedge(v, q, d):
    """Direction d points strictly into the polygon interior at vertex q."""
    m = v.m
    vq = v.point(q)
    pp = v.point(1 + (q - 2) % m)
    pn = v.point(1 + q % m)
    A = (pp[0] - vq[0], pp[1] - vq[1])
    B = (pn[0] - vq[0], pn[1] - vq[1])
    cab = geom.cross(A[0], A[1], B[0], B[1])
    ca = geom.cross(A[0], A[1], d[0], d[1])
    cb = geom.cross(d[0], d[1], B[0], B[1])
    if cab > 0:
        return ca > 0 and cb > 0
    if cab < 0:
        return ca > 0 or cb > 0
    return ca > 0


def one_virtual_twins(v, seed, min_m=130):
    """Views with exactly one rational vertex H, as the SPT far case makes
    them: H is where the ray from a vertex q of the integer view `v` toward
    an integer point P first crosses the boundary, inside edge (e1, e1 + 1),
    with a coordinate denominator above 2**20.  Returns (views, q, P): the
    piece q..e1 closed by H (a convex virtual vertex) with H at its slot 0,
    at a middle slot and at slot m - 1, `v` itself with H inserted into
    edge e1 (a straight vertex, so lines through q and P cross the boundary
    exactly at H), and `v` with a reflex vertex moved by less than a unit to
    a point of such a denominator (a reflex rational vertex)."""
    rng = random.Random(seed)
    m = v.m
    pts = v.scan_points()
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    while True:
        q = rng.randrange(1, m + 1)
        P = (rng.randrange(min(xs), max(xs) + 1),
             rng.randrange(min(ys), max(ys) + 1))
        vq = pts[q - 1]
        if P == vq or not dir_in_interior_wedge(
                v, q, (P[0] - vq[0], P[1] - vq[1])):
            continue
        hit = geom.ray_shoot(v, q, P)
        e1 = hit.edge
        if e1 is None or (e1 - q) % m + 2 < min_m or max(
                hit.point[0].denominator, hit.point[1].denominator) <= 1 << 20:
            continue
        break
    cut = ("cut", CutVertex(None, hit.point, virtual=True))
    k = 1 + (q - 1 + max(1, ((e1 - q) % m) // 2)) % m
    pieces = [[cut, ("range", q, e1)],
              [("range", k, e1), cut, ("range", q, 1 + (k - 2) % m)],
              [("range", q, e1), cut],
              [("range", 1, e1), cut] + ([("range", e1 + 1, m)]
                                         if e1 < m else [])]
    den = (2 ** 21 + 1) * (2 ** 21 + 3)
    for r in range(2, m):
        a, b, c = pts[r - 2], pts[r - 1], pts[r]
        R = (b[0] + Fraction(2 ** 21 // 3, 2 ** 21 + 1),
             b[1] + Fraction(2 ** 21 // 5, 2 ** 21 + 3))
        ring = pts[:r - 1] + (R,) + pts[r:]
        if geom.orient(a, b, c) == geom.orient(a, R, c) \
                == geom.COUNTERCLOCKWISE and check_simple(
                    [(int(x * den), int(y * den)) for x, y in ring],
                    general_position=False).ok:
            break
    pieces.append([("range", 1, r - 1),
                   ("cut", CutVertex(None, R, virtual=True)),
                   ("range", r + 1, m)])
    views = [v.subview(segs) for segs in pieces]
    for w, slot in zip(views, (0, None, -1, e1, r - 1)):
        assert len(w.rational_slots) == 1
        if slot is not None:
            assert w.rational_slots == (slot % w.m,)
    return views, q, P


def two_virtual_twins(v, seed, min_m=130):
    """Views with exactly two rational vertices, as an SPT piece holds its
    lo and hi cuts.  From one_virtual_twins' piece A (H at slot 0, then
    q..e1), the ray from a vertex q2 of A toward an integer point P2 first
    crosses A's boundary at H2, inside an edge e2, with a coordinate
    denominator above 2**20, and A's part q2..e2 runs through H.  Returns
    (views, q, P): that part closed by H2 (a convex virtual vertex, next to
    H when e2 is one of H's edges) with H2 at slot 0, at a middle slot and
    at slot m - 1; `v` with H inserted into edge e1 and a straight rational
    vertex into another edge (lines through q and P cross the boundary
    exactly at H); and `v` with two straight rational vertices inserted
    into its closing edge (m, 1), at the adjacent slots m and m + 1 and at
    slots m + 1 and 0."""
    from scan_oracles import ray_hit
    rng = random.Random(seed)
    ones, q, P = one_virtual_twins(v, seed, min_m)
    a = ones[0]
    m = a.m
    pts = a.scan_points()
    xs = [int(p[0]) for p in pts]
    ys = [int(p[1]) for p in pts]
    while True:
        q2 = rng.randrange(2, m + 1)
        P2 = (rng.randrange(min(xs), max(xs) + 1),
              rng.randrange(min(ys), max(ys) + 1))
        vq = pts[q2 - 1]
        if P2 == vq or not dir_in_interior_wedge(
                a, q2, (P2[0] - vq[0], P2[1] - vq[1])):
            continue
        hit = ray_hit(a, q2, P2)
        e2 = hit.edge
        if e2 is None or (1 - q2) % m > (e2 - q2) % m \
                or (e2 - q2) % m + 2 < min_m // 2 or max(
                    hit.point[0].denominator,
                    hit.point[1].denominator) <= 1 << 20:
            continue
        break
    cut = ("cut", CutVertex(None, hit.point, virtual=True))
    k = 1 + (q2 - 1 + max(1, ((e2 - q2) % m) // 2)) % m
    pieces = [[cut, ("range", q2, e2)],
              [("range", k, e2), cut, ("range", q2, 1 + (k - 2) % m)],
              [("range", q2, e2), cut]]
    views = [a.subview(segs) for segs in pieces]
    # straight rational vertices on v's edges, at a fraction of the edge
    # with a denominator above 2**20
    n = v.m
    vpts = v.scan_points()

    def on_edge(e, u):
        (ax, ay), (bx, by) = vpts[e - 1], vpts[e % n]
        point = (ax + u * (bx - ax), ay + u * (by - ay))
        return ("cut", CutVertex(None, point, virtual=True))
    den = 2 ** 21 + 17
    lo, hi = (Fraction(rng.randrange(1, den // 2), den),
              Fraction(rng.randrange(den // 2, den), den))
    e1 = ones[3].rational_slots[0]
    h = ("cut", ones[3].items[1][1])
    ea = rng.choice([e for e in range(1, n) if e != e1])
    first, second = sorted([(e1, h), (ea, on_edge(ea, lo))])
    pieces = [[("range", 1, first[0]), first[1],
               ("range", first[0] + 1, second[0]), second[1]]
              + ([("range", second[0] + 1, n)] if second[0] < n else []),
              [("range", 1, n), on_edge(n, lo), on_edge(n, hi)],
              [on_edge(n, hi), ("range", 1, n), on_edge(n, lo)]]
    views += [v.subview(segs) for segs in pieces]
    for w in views:
        assert len(w.rational_slots) == 2, w.rational_slots
    return views, q, P
