"""Unrestricted-memory reference implementations, validators, and polygon
generators.  Everything here defines ground truth for the tests; nothing is
metered and numpy is used freely.
"""
from __future__ import annotations

import heapq
import math
import random
from itertools import accumulate
from decimal import Decimal, getcontext
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import geom
from .errors import InternalInvariantError, PolygonInputError
from .workspace import BasePolygon, SubpolygonView


class Report:
    """Validator outcome: ok flag plus the list of violations found."""

    def __init__(self):
        self.errors: List[str] = []

    def fail(self, msg: str):
        self.errors.append(msg)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "Report(ok)" if self.ok else f"Report({self.errors!r})"


# ---------------------------------------------------------------------------
# visibility graph and geodesics

class VisibilityGraph:
    """Boolean vertex-visibility matrix of a polygon, plus an optional free
    point (used for shortest-path-tree roots off the vertex set)."""

    def __init__(self, polygon: BasePolygon, extra_point=None):
        self.polygon = polygon
        self.view = SubpolygonView.whole(polygon)
        n = polygon.n
        self.n = n
        self.extra = extra_point
        size = n + (1 if extra_point is not None else 0)
        self.vis = np.zeros((size + 1, size + 1), dtype=bool)  # 1-based
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                v = geom.is_visible(self.view, i, j)
                self.vis[i, j] = v
                self.vis[j, i] = v
        if extra_point is not None:
            p = n + 1
            for j in range(1, n + 1):
                v = geom.point_sees_vertex(self.view, extra_point, j)
                self.vis[p, j] = v
                self.vis[j, p] = v

    def coords(self, i: int):
        if i <= self.n:
            return self.polygon.vertex(i)
        return self.extra


def _sq_dist(a, b) -> Fraction:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return Fraction(dx * dx + dy * dy)


def _length_close(d1: float, d2: float) -> bool:
    scale = max(1.0, abs(d1), abs(d2))
    return abs(d1 - d2) <= 1e-7 * scale


def _decimal_len(sq_terms: Sequence[Fraction], digits: int) -> Decimal:
    getcontext().prec = digits
    total = Decimal(0)
    for q in sq_terms:
        total += (Decimal(q.numerator) / Decimal(q.denominator)).sqrt()
    return total


def _compare_paths_exact(terms_a, terms_b) -> int:
    """-1/0/+1 comparison of two sums of square roots, escalating precision.

    Agreement to 390 digits at these coordinate magnitudes means the sums are
    genuinely equal (a collinear pass-through split, e.g. a root point aligned
    with two vertices); callers break such ties toward fewer segments."""
    if sorted(terms_a) == sorted(terms_b):
        return 0
    for digits in (50, 120, 400):
        da = _decimal_len(terms_a, digits)
        db = _decimal_len(terms_b, digits)
        eps = Decimal(10) ** (-(digits - 10))
        if da - db > eps:
            return 1
        if db - da > eps:
            return -1
    return 0


class _ShortestPaths:
    """Dijkstra over a visibility graph from one source, with exact tie
    refinement.  Parents give the unique geodesic tree."""

    def __init__(self, vg: VisibilityGraph, src: int):
        self.vg = vg
        self.src = src
        size = vg.vis.shape[0] - 1
        dist = [math.inf] * (size + 1)
        parent = [0] * (size + 1)
        terms: List[List[Fraction]] = [[] for _ in range(size + 1)]
        dist[src] = 0.0
        pq = [(0.0, src)]
        done = [False] * (size + 1)
        while pq:
            d, u = heapq.heappop(pq)
            if done[u]:
                continue
            done[u] = True
            cu = vg.coords(u)
            for v in np.flatnonzero(vg.vis[u]).tolist():
                if done[v]:
                    continue
                sq = _sq_dist(cu, vg.coords(v))
                nd = d + math.sqrt(float(sq))
                if nd < dist[v] - 1e-7 * max(1.0, nd):
                    dist[v] = nd
                    parent[v] = u
                    terms[v] = terms[u] + [sq]
                    heapq.heappush(pq, (nd, v))
                elif _length_close(nd, dist[v]) and parent[v] != u:
                    cand = terms[u] + [sq]
                    cmp = _compare_paths_exact(cand, terms[v])
                    if cmp < 0 or (cmp == 0 and len(cand) < len(terms[v])):
                        dist[v] = nd
                        parent[v] = u
                        terms[v] = cand
                        heapq.heappush(pq, (nd, v))
        self.parent = parent
        self.dist = dist

    def path_to(self, t: int) -> List[int]:
        out = [t]
        while t != self.src:
            t = self.parent[t]
            if t == 0:
                raise InternalInvariantError("unreachable vertex in geodesic oracle")
            out.append(t)
        out.reverse()
        return out


def _paths_from(polygon: BasePolygon, src: int) -> _ShortestPaths:
    """Shortest paths from vertex src, cached on the polygon with its
    visibility graph."""
    cache = polygon.__dict__.setdefault("_oracle_cache", {})
    if src not in cache:
        if "vg" not in cache:
            cache["vg"] = VisibilityGraph(polygon)
        cache[src] = _ShortestPaths(cache["vg"], src)
    return cache[src]


def _strip_straight(polygon: BasePolygon, path: List[int]) -> List[int]:
    # canonical form: drop interior vertices that the path passes through
    # without bending (cannot occur under strict general position)
    out = [path[0]]
    for k in range(1, len(path) - 1):
        a = polygon.vertex(out[-1])
        b = polygon.vertex(path[k])
        c = polygon.vertex(path[k + 1])
        if geom.orient(a, b, c) == geom.COLLINEAR:
            continue
        out.append(path[k])
    out.append(path[-1])
    return out


def ref_geodesic(polygon: BasePolygon, a: int, b: int) -> List[int]:
    """Vertex sequence of the unique shortest path between vertices a and b."""
    if a == b:
        return [a]
    path = _paths_from(polygon, a).path_to(b)
    return _strip_straight(polygon, path)


def ref_spt(polygon: BasePolygon, p) -> set:
    """Edge set of the shortest-path tree from p as (parent, child) pairs.

    p is a 1-based vertex index, or an integer point inside the polygon
    (then parents referencing p use the sentinel 0); a point outside the
    closed polygon is refused, as spt() refuses it.
    """
    if type(p) is int:
        if not 1 <= p <= polygon.n:
            raise PolygonInputError(f"root vertex {p} out of range")
        sp = _paths_from(polygon, p)
        return {(sp.parent[v], v) for v in range(1, polygon.n + 1) if v != p}
    if not geom.point_in_closed(SubpolygonView.whole(polygon), p):
        raise PolygonInputError("root point lies outside the polygon")
    root = polygon.n + 1          # the point's node, named 0 as a parent
    sp = _ShortestPaths(VisibilityGraph(polygon, extra_point=p), root)
    return {(0 if sp.parent[v] == root else sp.parent[v], v)
            for v in range(1, root)}


# ---------------------------------------------------------------------------
# validators

def _noncrossing_by_intervals(n: int, diagonals) -> Optional[Tuple]:
    """None when the index intervals nest; otherwise one offending pair.

    For interior diagonals of a simple polygon, straight-segment crossing is
    equivalent to endpoint interleaving along the boundary circle.
    """
    ivs = sorted(((min(a, b), max(a, b)) for a, b in diagonals),
                 key=lambda iv: (iv[0], -iv[1]))
    stack: List[Tuple[int, int]] = []
    for a, b in ivs:
        while stack and stack[-1][1] <= a:
            stack.pop()
        if stack and b > stack[-1][1]:
            return (a, b), stack[-1]
        stack.append((a, b))
    return None


def validate_triangulation(polygon: BasePolygon, diagonals) -> Report:
    """Accepts exactly the diagonal sets that triangulate the polygon:
    n-3 distinct interior diagonals, pairwise non-crossing."""
    rep = Report()
    n = polygon.n
    view = SubpolygonView.whole(polygon)
    diags = list(diagonals)
    if len(diags) != n - 3:
        rep.fail(f"expected {n - 3} diagonals, got {len(diags)}")
    seen = set()
    clean = []
    for d in diags:
        a, b = d
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            rep.fail(f"diagonal {d} out of range")
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            rep.fail(f"duplicate diagonal {key}")
            continue
        seen.add(key)
        if (b - a) % n in (1, n - 1):
            rep.fail(f"{key} is a polygon edge, not a diagonal")
            continue
        clean.append(key)
    for key in clean:
        if not geom.is_visible(view, key[0], key[1]):
            rep.fail(f"diagonal {key} is not an interior sightline")
    bad = _noncrossing_by_intervals(n, clean)
    if bad is not None:
        rep.fail(f"diagonals {bad[0]} and {bad[1]} cross")
    return rep


def validate_adjacency(polygon: BasePolygon, records) -> Report:
    """Accepts triangle records (id, corners, neighbors) whose neighbor across
    side (corners[k], corners[k+1]) is 0 exactly across a polygon edge, and
    else a record that names this one back across the same side."""
    rep = Report()
    n = polygon.n
    sides = {tid: [(min(u, v), max(u, v), nb) for u, v, nb in
                   zip(c, c[1:] + c[:1], nbs)] for tid, c, nbs in records}
    if len(sides) < len(records):
        rep.fail("two triangle records share an id")
    for tid, held in sides.items():
        for u, v, nb in held:
            if (nb != 0 if (v - u) % n in (1, n - 1)
                    else (u, v, tid) not in sides.get(nb, ())):
                rep.fail(f"triangle {tid}: neighbor {nb} across ({u}, {v})")
    return rep


def validate_spt(polygon: BasePolygon, p, edges) -> Report:
    rep = Report()
    expect = ref_spt(polygon, p)
    got = set(edges)
    if got != expect:
        rep.fail(f"spt mismatch: missing {sorted(expect - got)[:5]}, "
                 f"extra {sorted(got - expect)[:5]}")
    return rep


def validate_partition(polygon: BasePolygon, diagonals, pieces, s: int) -> Report:
    """Checks Theta(s)-partition output: piece sizes within [floor(t/6), t+2]
    with t = max(ceil(n/s), 3), piece count within [n/(t+2), 6n/t + 2],
    non-crossing interior diagonals, and piece/diagonal bookkeeping."""
    rep = Report()
    n = polygon.n
    view = SubpolygonView.whole(polygon)
    t = max(-(-n // s), 3)
    lo, hi = t // 6, t + 2
    sizes = []
    covered = set()
    for piece in pieces:
        verts = list(piece)
        sizes.append(len(verts))
        covered.update(verts)
        if not lo <= len(verts) <= hi:
            rep.fail(f"piece size {len(verts)} outside [{lo}, {hi}]")
    if covered != set(range(1, n + 1)):
        rep.fail("pieces do not cover every vertex")
    count = len(sizes)
    if not (n / (t + 2) - 1e-9 <= count <= 6 * n / t + 2 + 1e-9):
        rep.fail(f"piece count {count} outside [{n / (t + 2):.2f}, "
                 f"{6 * n / t + 2:.2f}]")
    diags = [(min(a, b), max(a, b)) for a, b in diagonals]
    if len(set(diags)) != len(diags):
        rep.fail("duplicate partition diagonal")
    for a, b in diags:
        if (b - a) % n in (1, n - 1):
            rep.fail(f"partition cut ({a},{b}) is a polygon edge")
        elif not geom.is_visible(view, a, b):
            rep.fail(f"partition cut ({a},{b}) is not interior")
    bad = _noncrossing_by_intervals(n, diags)
    if bad is not None:
        rep.fail(f"partition cuts {bad[0]} and {bad[1]} cross")
    total = sum(sizes)
    if total != n + 2 * len(diags):
        rep.fail(f"piece sizes sum to {total}, expected {n + 2 * len(diags)}")
    return rep


def check_simple(points: Sequence[Tuple[int, int]],
                 general_position: bool = True,
                 gp_limit: int = 2048) -> Report:
    """Simplicity, and optionally strict general position, of a vertex ring.

    Simple means: at least 3 vertices, no two equal, and no two edges that
    meet except consecutive edges at their shared vertex.  Consecutive edges
    that run on in a straight line are allowed; ones that fold back over
    each other are not.  A Shamos-Hoey sweep (`_sweep_fault`) decides this
    at every n in O(n log n) exact integer steps.  With `general_position`,
    rings of at most `gp_limit` vertices must also have no three collinear
    vertices (`_collinear_triple`, O(n^2 log n) time in O(n) memory).  The
    first fault found is the report's only error.  It names the vertices or
    edges at fault, 1-based, where edge k runs from vertex k to vertex k+1:
    "vertices i and j coincide", "vertex i lies on edge k", "edges k and l
    cross" or "vertices (i, j, l) are collinear".
    """
    rep = Report()
    n = len(points)
    if n < 3:
        rep.fail("fewer than 3 vertices")
        return rep
    fault = _sweep_fault(points)
    if fault is None and general_position and n <= gp_limit:
        col = _collinear_triple(np.array([p[0] for p in points], dtype=np.int64),
                                np.array([p[1] for p in points], dtype=np.int64))
        if col is not None:
            fault = f"vertices {col} are collinear"
    if fault is not None:
        rep.fail(fault)
    return rep


def _sweep_fault(points) -> Optional[str]:
    """The first fault a Shamos-Hoey sweep meets in the ring, or None.

    Vertices are visited in lexicographic (x, y) order, which sweeps a line
    tilted slightly off the vertical, so vertical edges need no special
    case.  Each edge is active between its two endpoints; the active edges
    are kept in a list ordered bottom to top along the sweep line.  At a
    vertex p one binary search with exact orientation tests finds where p
    lies in that order.  An active edge through p that is not one of p's
    edges is a fault; otherwise the edges that end at p are deleted there,
    the edges that start at p inserted there, and each pair of edges that
    becomes adjacent is tested for a proper crossing.

    That finds every fault.  Two edges that touch or overlap always put a
    vertex inside a non-incident edge, which the search at that vertex
    meets.  Before the first crossing at an inner point, the list order is
    the order along the sweep line (two edges that leave one vertex along
    one line may stand in either order), so the two crossing edges are
    adjacent, and were tested, by the event before it.
    """
    n = len(points)
    order = sorted(range(n), key=points.__getitem__)
    for a, b in zip(order, order[1:]):
        if points[a] == points[b]:
            return f"vertices {min(a, b) + 1} and {max(a, b) + 1} coincide"
    # an active edge is (x, y, dx, dy, k): its left end, the direction to
    # its right end, and its index (edge k runs from vertex k)
    status: List[Tuple[int, int, int, int, int]] = []
    for v in order:
        px, py = points[v]
        prev = (v - 1) % n
        # first edge not below p
        lo, hi = 0, len(status)
        while lo < hi:
            mid = (lo + hi) >> 1
            x, y, dx, dy, _ = status[mid]
            if dx * (py - y) > dy * (px - x):
                lo = mid + 1
            else:
                hi = mid
        # the edges through p: the ones that end at p, else a fault
        hi = lo
        while hi < len(status):
            x, y, dx, dy, k = status[hi]
            if dx * (py - y) != dy * (px - x):
                break
            if k != v and k != prev:
                return f"vertex {v + 1} lies on edge {k + 1}"
            hi += 1
        starts = [(px, py, qx - px, qy - py, k)
                  for k, (qx, qy) in ((prev, points[prev]),
                                      (v, points[(v + 1) % n]))
                  if (qx, qy) > (px, py)]
        if hi - lo != 2 - len(starts):
            raise InternalInvariantError(
                f"sweep lost an edge ending at vertex {v + 1}")
        if len(starts) == 2 and starts[0][2] * starts[1][3] \
                < starts[0][3] * starts[1][2]:
            starts.reverse()          # lower edge first
        status[lo:hi] = starts
        # the new neighbour pairs: below p and above it (one pair when
        # nothing starts at p)
        for a in (lo - 1, lo + len(starts) - 1):
            if 0 <= a < len(status) - 1 and _cross(status[a], status[a + 1]):
                ka, kb = sorted((status[a][4], status[a + 1][4]))
                return f"edges {ka + 1} and {kb + 1} cross"
    return None


def _cross(e, f) -> bool:
    """Whether two edges (x, y, dx, dy, k) cross at a point inside both."""
    ax, ay, adx, ady, _ = e
    bx, by, bdx, bdy, _ = f
    d1 = adx * (by - ay) - ady * (bx - ax)
    d2 = adx * (by + bdy - ay) - ady * (bx + bdx - ax)
    d3 = bdx * (ay - by) - bdy * (ax - bx)
    d4 = bdx * (ay + ady - by) - bdy * (ax + adx - bx)
    return ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4))


_GP_BLOCK = 1 << 14   # most slope cells held at once by _collinear_triple


def _collinear_triple(xs, ys) -> Optional[Tuple[int, int, int]]:
    """Any three collinear points (1-based), or None.  The points must be
    distinct; xs and ys are int64 arrays of magnitude at most 2^26.

    Blocks of rows i hold the slope from point i to every point j as a
    float64, sort each row and look for equal neighbours.  Integer
    differences below 2^53 convert exactly and IEEE division rounds
    correctly, so equal rational slopes always give equal doubles; unequal
    ones may collide too, so each row with a tie is settled exactly by its
    primitive directions (`_row_collinear`).  Rows are tried in order, so
    the triple is the first row's, as a row-by-row search would find."""
    n = len(xs)
    rows = max(1, _GP_BLOCK // n)
    for i0 in range(0, n, rows):
        i1 = min(n, i0 + rows)
        dx = xs[None, :] - xs[i0:i1, None]
        dy = ys[None, :] - ys[i0:i1, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = dy / dx
        slope[dx == 0] = np.inf
        slope[np.arange(i1 - i0), np.arange(i0, i1)] = np.nan
        slope.sort(axis=1)
        tied = (slope[:, 1:] == slope[:, :-1]).any(axis=1)
        for r in np.flatnonzero(tied).tolist():
            col = _row_collinear(xs, ys, i0 + r)
            if col is not None:
                return col
    return None


def _row_collinear(xs, ys, i: int) -> Optional[Tuple[int, int, int]]:
    """Two points on one line through point i, with i (1-based), by exact
    primitive directions; or None."""
    n = len(xs)
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
    if not (counts > 1).any():
        return None
    dup = uniq[np.argmax(counts > 1)]
    others = [k for k in range(n) if k != i]
    hits = [others[k] for k in np.nonzero(pairs == dup)[0][:2]]
    return (i + 1, hits[0] + 1, hits[1] + 1)


# ---------------------------------------------------------------------------
# generators

def generate(kind: str, n: int, seed: int) -> BasePolygon:
    """Deterministic simple polygon in strict general position, clockwise."""
    if n < 3:
        raise PolygonInputError("n must be at least 3")
    makers = {
        "random": _gen_random,
        "convex": _gen_convex,
        "comb": _gen_comb,
        "spiral": _gen_spiral,
        "monotone": _gen_monotone,
    }
    if kind not in makers:
        raise PolygonInputError(f"unknown generator kind {kind!r}")
    for attempt in range(40):
        pts = makers[kind](n, seed + 1000003 * attempt)
        if pts is None:
            continue
        poly = BasePolygon.clockwise(pts)
        if check_simple(poly.points(), general_position=True).ok:
            poly.kind = kind
            return poly
    if kind == "convex":
        poly = BasePolygon.clockwise(_convex_fallback(n, seed))
        poly.kind = kind
        return poly
    raise PolygonInputError(f"could not generate {kind} polygon n={n} "
                            f"seed={seed} after 40 attempts")


def _convex_fallback(n: int, seed: int):
    """A strictly convex ring for the sizes (n >= 16000 or so) where every
    Valtr draw repeats a direction: ceil(n/2) of the shortest primitive
    vectors and their negatives in angle order; for odd n the first two
    merge into their sum, whose direction lies strictly between theirs."""
    k = math.isqrt(n) + 1        # about 1.2 k*k vectors to draw from
    pool = [(a, b) for a in range(-k, k + 1) for b in range(k + 1)
            if (b > 0 or a > 0) and math.gcd(a, b) == 1]
    vecs = random.Random(seed).sample(pool, -(-n // 2))
    vecs += [(-a, -b) for a, b in vecs]
    vecs.sort(key=lambda v: math.atan2(v[1], v[0]))
    if n % 2:
        (a, b), (c, d) = vecs[:2]
        vecs[:2] = [(a + c, b + d)]
    return _ring(vecs)


def _ring(vecs):
    """The ring that edge vectors summing to zero close, from (0, 0)."""
    return list(accumulate(vecs[:-1], initial=(0, 0),
                           func=lambda p, v: (p[0] + v[0], p[1] + v[1])))


def _gen_convex(n: int, seed: int):
    """Integer Valtr construction: random vector set summing to zero, sorted
    by angle.  Distinct primitive directions give strict convexity, which
    makes any three vertices non-collinear."""
    rng = random.Random(seed)
    r = min(geom.COORD_LIMIT // 4, max(256, 4 * n * n))
    xs = sorted(rng.randrange(-r, r + 1) for _ in range(n))
    ys = sorted(rng.randrange(-r, r + 1) for _ in range(n))

    def deltas(vals):
        lo, hi = vals[0], vals[-1]
        last_a, last_b = lo, lo
        out = []
        for v in vals[1:-1]:
            if rng.getrandbits(1):
                out.append(v - last_a)
                last_a = v
            else:
                out.append(last_b - v)
                last_b = v
        out.append(hi - last_a)
        out.append(last_b - hi)
        return out          # runs lo..hi and back: the sum is 0

    vx = deltas(xs)
    vy = deltas(ys)
    rng.shuffle(vy)
    vecs = list(zip(vx, vy))
    if any(v == (0, 0) for v in vecs):
        return None
    prim = set()
    for dx, dy in vecs:
        g = math.gcd(abs(dx), abs(dy))
        key = (dx // g, dy // g)
        if key in prim:
            return None  # parallel edges would create a straight vertex
        prim.add(key)
    vecs.sort(key=lambda v: math.atan2(v[1], v[0]))
    return _ring(vecs)


def _gen_random(n: int, seed: int):
    """Random point set untangled into a simple polygon by 2-opt moves."""
    rng = random.Random(seed)
    r = min(geom.COORD_LIMIT, max(4 * n, 64) * max(4 * n, 64))
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(0, r), rng.randrange(0, r)))
    pts = list(pts)
    rng.shuffle(pts)
    xs = np.array([p[0] for p in pts], dtype=np.int64)
    ys = np.array([p[1] for p in pts], dtype=np.int64)
    if _collinear_triple(xs, ys) is not None:
        return None
    order = np.arange(n)
    row, moved = 0, ()
    for _ in range(50 * n * n):
        pair = _first_crossing(xs[order], ys[order], row, moved)
        if pair is None:
            return [pts[k] for k in order]
        i, j = pair
        order[i + 1:j + 1] = order[i + 1:j + 1][::-1]
        # the move replaces edges i and j; the edges between them are the
        # same segments reversed, and no edge before i crossed any of them
        row, moved = i, (i, j)
    return None


_CROSSING_BLOCK = 1 << 16   # most array cells tested at once


def _first_crossing(xs, ys, row: int = 0,
                    moved=()) -> Optional[Tuple[int, int]]:
    """First pair (k, j), k < j, in row-major order whose edges k -> k+1 and
    j -> j+1 (cyclically) properly cross, or None.

    Rows before `row` are tested only against the edges in `moved`: the
    caller knows they cross nothing else.  The rest are tested in blocks of
    rows as 2-D int64 arrays, growing from a few rows at a time, since the
    first crossing is often near the start.
    """
    n = len(xs)
    bx, by = np.roll(xs, -1), np.roll(ys, -1)
    if moved:
        cols = np.array(moved)
        ks = np.arange(row)
        hit = _crossings(xs, ys, bx, by, ks, cols)
        if hit.any():
            flat = int(np.argmax(hit))
            return int(ks[flat // len(cols)]), int(cols[flat % len(cols)])
    cols = np.arange(n)
    rows = max(1, 1024 // n)
    k0 = row
    while k0 < n - 2:
        ks = np.arange(k0, min(n - 2, k0 + rows))
        hit = _crossings(xs, ys, bx, by, ks, cols)
        hit &= cols > ks[:, None]
        if hit.any():
            flat = int(np.argmax(hit))
            return int(ks[flat // n]), flat % n
        k0 += rows
        rows = min(2 * rows, max(1, _CROSSING_BLOCK // n))
    return None


def _crossings(xs, ys, bx, by, ks, cols):
    """Boolean (rows, cols) array: edge ks[r] properly crosses edge cols[c].
    Edge k runs from (xs[k], ys[k]) to (bx[k], by[k])."""
    ax, ay = xs[ks, None], ys[ks, None]
    kx, ky = bx[ks, None], by[ks, None]
    cx, cy = xs[cols], ys[cols]
    dx, dy = bx[cols], by[cols]
    o1 = np.sign((kx - ax) * (cy - ay) - (ky - ay) * (cx - ax))
    o2 = np.sign((kx - ax) * (dy - ay) - (ky - ay) * (dx - ax))
    o3 = np.sign((dx - cx) * (ay - cy) - (dy - cy) * (ax - cx))
    o4 = np.sign((dx - cx) * (ky - cy) - (dy - cy) * (kx - cx))
    return (o1 * o2 < 0) & (o3 * o4 < 0)


def _strict_chain(rng: random.Random, count: int, concave: bool) -> List[int]:
    """y-values over consecutive integer gap indices whose slopes are strictly
    monotone (a single peak or valley), so no three points are collinear."""
    gaps = count - 1
    steps = [rng.choice((1, 2)) for _ in range(gaps)]
    slope = sum(steps) // 2 + 1
    if not concave:
        slope = -slope
    ys = [0]
    for d in steps:
        ys.append(ys[-1] + slope)
        slope += -d if concave else d
    base = -min(ys)
    return [y + base for y in ys]


def _gen_comb(n: int, seed: int):
    """Deep rectangular notches cut into the top edge of a box; the last notch
    opens toward the right wall.  For n = 4k+2 this gives exactly 2k-1 reflex
    vertices (the notch bottoms).  Tooth tops lie on a strictly concave chain
    and notch bottoms on a strictly convex one, so neither chain contains a
    collinear triple, and the chains are separated by the notch depth."""
    if n < 10:
        return _gen_convex(n, seed)
    rng = random.Random(seed)
    k = (n - 2) // 4
    extra = n - (4 * k + 2)          # 0..3 spare vertices on the left wall
    tops = _strict_chain(rng, 2 * k, concave=True)       # x = 0,2,...,4k-2
    bots = _strict_chain(rng, 2 * k - 1, concave=False)  # notch bottoms
    top_max, bot_max = max(tops), max(bots)
    H = top_max + bot_max + 4000         # tops sit well above every bottom
    top_y = [H + t - top_max for t in tops]              # peak at H
    bot_y = [b - bot_max for b in bots]                  # valley at <= 0
    y_floor = min(bot_y) - 5000
    width = 4 * k + 3
    pts: List[Tuple[int, int]] = [(0, y_floor)]
    # optional left-wall bulge (convex by increasing height gaps)
    h = y_floor
    gap = max(1000, (top_y[0] - y_floor) // 8)
    for e in range(extra):
        h += gap * (e + 1)
        pts.append((-1 - e, h))
    pts.append((0, top_y[0]))        # top-left corner
    ti = 1
    bi = 0
    for j in range(1, k + 1):
        x1 = 4 * j - 2
        x2 = 4 * j
        pts.append((x1, top_y[ti])); ti += 1
        pts.append((x1, bot_y[bi])); bi += 1
        if j < k:
            pts.append((x2, bot_y[bi])); bi += 1
            pts.append((x2, top_y[ti])); ti += 1
        else:
            # merged final notch: convex step-down to the bottom-right corner
            pts.append((x2, bot_y[bi - 1] - 500))
            pts.append((width, y_floor - 3))
    return pts


# Largest n for which the original spiral shape can come out simple, by parity
# of n (see _gen_spiral); from the next n on every ring of that shape crosses
# itself whatever the jitter, and _gen_spiral switches to the wide shape.
_SPIRAL_NARROW_MAX = {0: 13664, 1: 7271}
# most turns of the wide shape: those of n = 12800, whose outermost edges stay
# about 400 units clear of the inner arm (jitter moves a vertex at most 87)
_SPIRAL_WIDE_TURNS = 200


def _gen_spiral(n: int, seed: int):
    """Spiral corridor: an outward arm and a parallel inner arm walked back,
    leaving a channel that winds through every turn.  The inner-arm vertices
    form one long reflex chain, so geodesics along the corridor bend at
    nearly half the vertices.

    The original shape makes n / 64 turns with 32 vertices per arm and turn.
    Each outer-arm edge dips inside its circle, by about 0.0018 r where the
    inner arm's vertex 0.02 rad further on lies, and by more toward the
    edge's middle; the corridor is 9,000 units wide.  For even n the inner
    vertices keep that offset, and the dip reaches the corridor at about
    n = 13,400 (r of about 5.1 million).  For odd n the inner arm has one
    vertex less and a longer step, so its vertices drift toward the middle of
    the outer edges and the rings cross from about n = 7,100.  Past
    _SPIRAL_NARROW_MAX, where no jitter gives a simple ring, the wide shape
    puts a whole number of vertices on each turn, at least 32 and enough for
    at most _SPIRAL_WIDE_TURNS turns, so that each turn's edges run parallel
    to the next turn's and the outermost radius stays below 4.9 million, and
    steps the inner arm by the outer arm's angle.  Up to _SPIRAL_NARROW_MAX
    the rings are the original ones, bit for bit.
    """
    if n < 12:
        return _gen_convex(n, seed)
    rng = random.Random(seed)
    n_out = (n + 1) // 2
    n_in = n - n_out
    wide = n > _SPIRAL_NARROW_MAX[n % 2]
    if wide:
        per_turn = max(32, -(-(n_out - 1) // _SPIRAL_WIDE_TURNS))
        turns = (n_out - 1) / per_turn
    else:
        turns = max(1.0, n / 64.0)
    pitch = 24000
    corridor = 9000
    r_end = corridor + 15000
    sweep = 2 * math.pi * turns
    c = pitch / (2 * math.pi)

    def arm(count, steps, radius_shift, angle_shift):
        out = []
        for i in range(count):
            th = sweep * i / steps + angle_shift
            r = r_end + c * (sweep - (th - angle_shift)) + radius_shift
            x = int(round(r * math.cos(th))) + rng.randrange(-61, 62)
            y = int(round(r * math.sin(th))) + rng.randrange(-61, 62)
            out.append((x, y))
        return out

    outer = arm(n_out, n_out - 1, 0, 0.0)
    inner = arm(n_in, (n_out if wide else n_in) - 1, -corridor, 0.02)
    return outer + inner[::-1]


def _gen_monotone(n: int, seed: int):
    """x-monotone polygon: distinct x's split into an upper and lower chain.

    The y span grows with n^2 so random collinear triples stay rare enough
    for the resample loop."""
    rng = random.Random(seed)
    rx = max(8 * n, 256)
    ry = min(geom.COORD_LIMIT // 2, max(4 * n * n, 256))
    xs = rng.sample(range(rx), n)
    xs.sort()
    upper = [xs[0]]
    lower = []
    for x in xs[1:-1]:
        (upper if rng.getrandbits(1) else lower).append(x)
    upper.append(xs[-1])
    pts_u = [(x, ry + rng.randrange(ry)) for x in upper]
    pts_l = [(x, -rng.randrange(ry)) for x in lower]
    return pts_u + pts_l[::-1]
