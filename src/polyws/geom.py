"""Exact planar geometry: orientation predicates and O(m) boundary scans.

Everything here is computed in exact integer (or rational) arithmetic; there is
no tolerance parameter anywhere in the package.  Input coordinates are limited
to |x|, |y| <= 2**26, which keeps every 3-point orientation determinant within
2**55, so the scans run on int64 arrays without overflow.  Ratio
comparisons (nearest ray hit) are resolved in Python bigints on the few
candidates that survive the vectorized filter.

Boundary scans accept any "view" object exposing

    m            -- vertex count
    point(i)     -- exact coordinates of local vertex i (1-based, clockwise)
    all_int      -- True when every vertex has integer coordinates
    rational_slots -- array slots (i - 1) of the vertices with a coordinate
                      whose denominator is not 1, in ascending order
    scan_points()  -- tuple of the exact points, index 0 holding vertex 1
    coord_arrays() -- (xs, ys) int64 arrays, index 0 holding local vertex 1,
                      the rational slots (at most two) masked

Each scan has one kernel, on int64 arrays, at any view size.  The points a
scan is given (a ray's ends, a sight line's first end, a containment query)
are integer points: a local vertex index other than a rational slot, or a
free point whose coordinates are integers; a non-integer free point is
refused with PolygonInputError (see integer_point).  The candidate pick and
the ray scans take a view with up to two rational vertices (the virtual
vertices of an SPT split, at most its lo and hi cuts): they mask those slots
and settle the few results that read them (their own tests and those of
their edges) on Python ints, over the ring scaled by the slots' common
denominator (see _ScaledRing).  Visibility, containment and the reflex
search take views without rational vertices only (see _exact_arrays).  The
exact scalar scans that the kernels are tested against live with the tests.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import InternalInvariantError, PolygonInputError

COORD_LIMIT = 1 << 26

CLOCKWISE = -1
COLLINEAR = 0
COUNTERCLOCKWISE = 1

# The smallest view that scans on int64 arrays, which every view meets.
# Only the benchmark's per-layer labels read it now.
BULK_MIN_M = 3


class _ScaledRing:
    """A scan ring whose rational vertices, at the array slots `slots`, are
    read over their least common denominator d, as the ring scaled by d:
    a rational slot gives its point times d and every other slot its point
    times d, all Python ints.  A common positive scale keeps every
    orientation sign and every ratio of crossing parameters, so the exact
    ring helpers settle the rational vertices on ints when the scan's own
    points are scaled alike."""

    __slots__ = ("pts", "slots", "d", "virt")

    def __init__(self, pts, slots):
        d = 1
        for k in slots:
            for c in pts[k]:
                d = lcm(d, c.denominator)
        self.pts = pts
        self.slots = slots
        self.d = d
        self.virt = {k: (int(pts[k][0] * d), int(pts[k][1] * d))
                     for k in slots}

    def __len__(self):
        return len(self.pts)

    def __getitem__(self, k):
        k %= len(self.pts)
        got = self.virt.get(k)
        if got is not None:
            return got
        x, y = self.pts[k]
        return x * self.d, y * self.d

    def scale(self, p):
        return p[0] * self.d, p[1] * self.d

    def near(self, lo: int, hi: int) -> list:
        """The array slots from lo to hi places after each rational slot,
        each once."""
        m = len(self.pts)
        return sorted({(s + k) % m for s in self.slots
                       for k in range(lo, hi + 1)})


Coord = Union[int, Fraction]
Pt = Tuple[Coord, Coord]


class RayHit(NamedTuple):
    """First proper boundary crossing of a ray.

    Exactly one of `edge` / `vertex` is set: `edge` for a crossing in the
    interior of a boundary edge (with `point` the exact crossing point),
    `vertex` when the boundary crosses the ray exactly at a vertex (possible
    only in derived views).
    `ray_t` is the exact parameter along the ray (direction = unit of `toward`).
    """

    edge: Optional[int]
    vertex: Optional[int]
    ray_t: Fraction
    point: Pt


def check_coord(v) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise PolygonInputError(f"coordinate {v!r} is not an integer")
    if abs(v) > COORD_LIMIT:
        raise PolygonInputError(f"coordinate {v} outside |x| <= 2^26")
    return v


def integer_point(p) -> Tuple[int, int]:
    """The free point p of a scan as a pair of Python ints.  Raises
    PolygonInputError unless each coordinate is an integer (a Fraction of
    denominator 1 counts as one)."""
    x, y = p
    if type(x) is not int or type(y) is not int:
        if getattr(x, "denominator", 0) != 1 \
                or getattr(y, "denominator", 0) != 1:
            raise PolygonInputError(f"point {tuple(p)!r} is not an integer "
                                    f"point")
        x, y = int(x), int(y)
    return x, y


def _exact_arrays(view):
    """coord_arrays of a view without rational vertices.  Visibility,
    containment and the reflex search read every slot as it stands, so a
    view with a masked slot is refused.  The library never hands them one:
    a triangulation piece has no virtual vertex (its far case answers with
    a polygon vertex), SPT calls them on the whole polygon only (to place a
    point root), and the oracles on whole polygons."""
    if not view.all_int:
        raise InternalInvariantError(
            "visibility, containment and the reflex search take views "
            "without virtual vertices")
    return view.coord_arrays()


def orient(a: Pt, b: Pt, c: Pt) -> int:
    """Sign of (b-a) x (c-a): +1 counterclockwise, -1 clockwise, 0 collinear."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if d > 0:
        return COUNTERCLOCKWISE
    if d < 0:
        return CLOCKWISE
    return COLLINEAR


def cross(ax, ay, bx, by):
    return ax * by - ay * bx


def segments_properly_intersect(a: Pt, b: Pt, c: Pt, d: Pt) -> bool:
    """True iff open segments ab and cd share exactly one interior point.

    Endpoint touching and collinear overlap both return False.
    """
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    if o1 * o2 >= 0:
        return False
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    return o3 * o4 < 0


def on_closed_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """True iff p lies on the closed segment ab (exact)."""
    if orient(a, b, p) != COLLINEAR:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def is_reflex(view, i: int) -> bool:
    """Interior angle at local vertex i exceeds 180 degrees (clockwise views)."""
    m = view.m
    p = view.point(1 + (i - 2) % m)
    v = view.point(i)
    n = view.point(1 + i % m)
    return orient(p, v, n) == COUNTERCLOCKWISE


# ---------------------------------------------------------------------------
# point in polygon

def point_in_closed(view, p: Pt) -> bool:
    """True iff the integer point p lies inside or on the boundary of the
    view's polygon."""
    return _point_in_closed(view, integer_point(p))


def _point_in_closed(view, p: Pt, scale: int = 1) -> bool:
    """point_in_closed of the point p / scale, p an integer point; with
    scale 2 the doubled coordinates stay below 2**28 and every product below
    2**57."""
    xs, ys = _exact_arrays(view)
    if scale != 1:
        xs = xs * scale
        ys = ys * scale
    px, py = p
    # edge k runs from slot k to slot k+1, the last one back to slot 0
    ax, ay = xs, ys
    bx = np.concatenate((xs[1:], xs[:1]))
    by = np.concatenate((ys[1:], ys[:1]))
    cr = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    # on an edge counts as inside
    on = (cr == 0) & (np.minimum(ax, bx) <= px) & (px <= np.maximum(ax, bx)) \
        & (np.minimum(ay, by) <= py) & (py <= np.maximum(ay, by))
    hit = ((ay > py) != (by > py)) & ((cr > 0) == (by > ay))
    if on.any():
        return True
    return bool(np.count_nonzero(hit) & 1)


# ---------------------------------------------------------------------------
# visibility

def is_visible(view, i: int, j: int) -> bool:
    """True iff local vertices i and j see each other within the view.

    The segment may graze the boundary (closed-set visibility): touching a
    vertex without crossing does not block.  O(m) scan, O(1) retained state.
    """
    if i == j:
        raise PolygonInputError("is_visible requires distinct vertices")
    m = view.m
    if (j - i) % m == 1 or (i - j) % m == 1:
        return True  # boundary edge
    return _visible(view, i, None, j)


def point_sees_vertex(view, p: Pt, j: int) -> bool:
    """Closed-set visibility between an integer point p of the closed
    polygon and local vertex j: is_visible's scan with p as the first
    endpoint."""
    return _visible(view, 0, integer_point(p), j)


def _visible(view, i: int, p: Optional[Pt], j: int) -> bool:
    """Visibility of vertex j from the first endpoint: local vertex i, or
    the integer point p when i is 0.  The segment is blocked by an edge that
    crosses it properly, or by a third vertex on the open segment whose two
    neighbors lie strictly on opposite sides of its line; otherwise its
    midpoint decides."""
    xs, ys = _exact_arrays(view)
    if i:
        ax, ay = int(xs[i - 1]), int(ys[i - 1])
    else:
        ax, ay = p
    bx, by = int(xs[j - 1]), int(ys[j - 1])
    s = np.sign((bx - ax) * (ys - ay) - (by - ay) * (xs - ax))
    m = len(s)
    col = (s == 0)
    if i:
        col[i - 1] = False
    col[j - 1] = False
    if col.any():
        ks = col.nonzero()[0]
        if ax != bx:
            c, lo, hi = xs[ks], min(ax, bx), max(ax, bx)
        else:
            c, lo, hi = ys[ks], min(ay, by), max(ay, by)
        for k in ks[(lo < c) & (c < hi)].tolist():
            if s[k - 1] * s[(k + 1) % m] < 0:
                return False
    # edges whose endpoints lie strictly on opposite sides of the segment's
    # line: the one from slot k to slot k+1, and the closing edge m -> 1
    ks = (s[:-1] * s[1:] < 0).nonzero()[0].tolist()
    if s[-1] * s[0] < 0:
        ks.append(m - 1)
    if ks:
        pts = view.scan_points()
        for k in ks:
            if _crosses_segment(pts[k], pts[(k + 1) % m], (ax, ay), (bx, by)):
                return False
    return _point_in_closed(view, (ax + bx, ay + by), 2)


def _crosses_segment(p: Pt, c: Pt, a: Pt, b: Pt) -> bool:
    """Edge pc, whose ends lie strictly on opposite sides of the line ab,
    crosses the open segment ab."""
    px, py = p
    ex = c[0] - px
    ey = c[1] - py
    o3 = ex * (a[1] - py) - ey * (a[0] - px)
    o4 = ex * (b[1] - py) - ey * (b[0] - px)
    return (o3 > 0 and o4 < 0) or (o3 < 0 and o4 > 0)


# ---------------------------------------------------------------------------
# ray shooting

def ray_shoot(view, origin, toward) -> RayHit:
    """First proper boundary crossing of the ray from `origin`.

    `origin` and `toward` are each a local vertex index or an integer point;
    `toward` only fixes the ray direction.  Edges through the origin are
    never reported (they touch the ray at its apex).  Grazing a vertex does
    not stop the ray; crossing the boundary exactly at a vertex (derived
    views only) is reported as a vertex hit.  Raises InternalInvariantError
    when nothing is hit, which cannot happen for a ray entering the interior
    of a simple polygon.
    """
    hit = _ray_scan(view, origin, toward)
    if hit is None:
        raise InternalInvariantError("ray from boundary vertex escaped the polygon")
    return hit


def _ray_scan(view, origin, toward) -> Optional[RayHit]:
    return _ray_dispatch(view, origin, toward, False)


def ray_scan_light(view, origin: int, toward, pts=None):
    """First boundary crossing of the ray, without exact-point materialization.

    Returns (kind, index, num, den) with kind 'edge' (index = edge start) or
    'vertex', and the ray parameter num/den normalized to den > 0 — enough
    for the cone search, which only compares the parameter against 1.
    Returns None when nothing is crossed.  `pts` is the view's scan ring
    when the caller already holds it.
    """
    return _ray_dispatch(view, origin, toward, True, pts)


def _ray_dispatch(view, origin, toward, light: bool, pts=None):
    """The ray scans' common front: `origin` and `toward` are each a local
    vertex index or an integer point (a free origin masks no slot)."""
    if pts is None:
        pts = view.scan_points()
    T = _ray_end(view, pts, toward, "target")
    O = _ray_end(view, pts, origin, "origin")
    if not isinstance(origin, int):
        origin = 0
    D = (T[0] - O[0], T[1] - O[1])
    if D[0] == 0 and D[1] == 0:
        raise PolygonInputError("ray direction is degenerate")
    found = _ray_kernel(view, pts, origin, O, D)
    if found is None:
        return None
    num, den, edge, vertex = found
    if light:
        if vertex is not None:
            return ("vertex", vertex, num, den)
        return ("edge", edge, num, den)
    t = Fraction(num, den)
    if vertex is not None:
        return RayHit(None, vertex, t, pts[vertex - 1])
    # an edge hit comes from a strict straddle of the ray's line, so the
    # crossing lies strictly inside the edge; a coordinate that is an
    # integer is stored as an int, so a view counts its vertex as one
    return RayHit(edge, None, t, tuple(
        c.numerator if c.denominator == 1 else c
        for c in (O[0] + t * D[0], O[1] + t * D[1])))


def _ray_end(view, pts, end, what: str):
    """The point of a ray's origin or target: a local vertex index, or an
    integer point.  The kernel reads the ray's line on int64, so neither end
    may be a rational vertex; the library never aims one there: rays leave
    the cone's apex or a walked vertex, and aim at reflex vertices, at the
    walk's target only when it is an integer vertex, or at integer points,
    while a virtual vertex is never reflex (it splits an edge, so it is
    convex or straight) nor an apex (see geodesic._initial_cone)."""
    if not isinstance(end, int):
        return integer_point(end)
    if not 1 <= end <= len(pts):
        raise PolygonInputError(f"ray {what} {end} outside 1..{len(pts)}")
    if end - 1 in view.rational_slots:
        raise InternalInvariantError(f"ray {what} {end} is a rational vertex")
    return pts[end - 1]


def _resolve_edges(best, pts, slots, origin: int, O: Pt, D: Pt):
    """`best` or the nearest crossing found at the edges that start at the
    array slots `slots`: a proper crossing of the edge, or a crossing exactly
    at one of its ends (other than the origin)."""
    m = len(pts)
    ox, oy = O
    dx, dy = D
    for j in slots:
        # the edge from array slot j to the next slot: local edge j+1
        c = j + 1 if j < m - 1 else 0
        px, py = pts[j]
        cx, cy = pts[c]
        ps = dx * (py - oy) - dy * (px - ox)
        cs = dx * (cy - oy) - dy * (cx - ox)
        if (ps > 0 and cs < 0) or (ps < 0 and cs > 0):
            best = _edge_crossing(best, j + 1, px, py, cx, cy, O, D)
            continue
        if ps == 0 and j + 1 != origin:
            best = _vertex_crossing(best, pts, j + 1, O, D)
        if cs == 0 and c + 1 != origin:
            best = _vertex_crossing(best, pts, c + 1, O, D)
    return best


def _settle_rational(best, pts, slots, origin: int, O: Pt, D: Pt):
    """`best` or the nearest crossing that reads a rational vertex at one of
    the array slots `slots`: at the four edges with an end within one slot
    of it, resolved on the scaled ring (the ray's origin and direction
    scaled alike), the parameter reduced to lowest terms."""
    ring = _ScaledRing(pts, slots)
    m = len(pts)
    ox, oy = O
    dx, dy = D
    todo = []
    for slot in slots:
        vx, vy = ring.virt[slot]
        sv = dx * (vy - oy * ring.d) - dy * (vx - ox * ring.d)
        if sv:
            # nothing to settle when the five slots lie strictly on one side
            for k in (slot - 2, slot - 1, slot + 1, slot + 2):
                x, y = pts[k % m]
                sk = dx * (y - oy) - dy * (x - ox)
                if sk == 0 or (sk > 0) != (sv > 0):
                    break
            else:
                continue
        todo.append(slot)
    if not todo:
        return best
    edges = sorted({(s + k) % m for s in todo for k in (-2, -1, 0, 1)})
    got = _resolve_edges(None, ring, edges, origin, ring.scale(O),
                         ring.scale(D))
    if got is None:
        return best
    num, den, edge, vertex = got
    g = gcd(num, den)
    num //= g
    den //= g
    if best is None or num * best[1] < best[0] * den:
        return (num, den, edge, vertex)
    return best


def _edge_crossing(best, edge, px, py, cx, cy, O, D):
    """`best` or the proper crossing of edge (p, c), whichever is nearer
    along the ray; the edge's endpoints lie strictly on opposite sides of
    the ray's line."""
    ox, oy = O
    dx, dy = D
    ex = cx - px
    ey = cy - py
    num = (px - ox) * ey - (py - oy) * ex
    den = dx * ey - dy * ex
    if num == 0 or (num > 0) != (den > 0):
        return best    # the line crossing is behind the origin
    if den < 0:
        num, den = -num, -den
    if best is None or num * best[1] < best[0] * den:
        return (num, den, edge, None)
    return best


def _vertex_crossing(best, pts, k, O, D):
    """`best` or the boundary crossing exactly at vertex k, which lies on the
    ray's line, whichever is nearer: k must lie ahead of the origin and its
    two neighbors strictly on opposite sides of the line."""
    m = len(pts)
    ox, oy = O
    dx, dy = D
    cx, cy = pts[k - 1]
    if dx * (cx - ox) + dy * (cy - oy) <= 0:
        return best
    px, py = pts[k - 2]
    nx, ny = pts[k % m]
    sp = dx * (py - oy) - dy * (px - ox)
    sn = dx * (ny - oy) - dy * (nx - ox)
    if not ((sp > 0 and sn < 0) or (sp < 0 and sn > 0)):
        return best
    num, den = (cx - ox, dx) if dx != 0 else (cy - oy, dy)
    if den < 0:
        num, den = -num, -den
    if best is None or num * best[1] < best[0] * den:
        return (num, den, None, k)
    return best


def _ray_kernel(view, pts, origin: int, O: Pt, D: Pt):
    """Nearest forward boundary crossing of the ray from the integer point O
    (local vertex `origin`, 0 for a free point) along the integer direction
    D, as (num, den, edge, vertex): the ray parameter num/den with den > 0
    and exactly one of edge (its start vertex) / vertex set; None when the
    ray crosses nothing.

    One vectorized pass marks the vertices strictly left of the ray's line.
    An edge that straddles the line joins a marked and an unmarked vertex,
    and so does one edge at each vertex on the line whose neighbors lie on
    opposite sides; only the edges where the mark changes are resolved,
    exactly, on Python ints.  The edges that read a rational slot are
    settled apart (_settle_rational).
    """
    xs, ys = view.coord_arrays()
    m = view.m
    ox, oy = O
    dx, dy = D
    rational = view.rational_slots
    # dx*(y-oy) - dy*(x-ox) > 0; each product is below 2**54 in magnitude
    left = dx * ys - dy * xs > dx * oy - dy * ox
    changes = (left[:-1] != left[1:]).nonzero()[0]
    if changes.size > _RAY_LOOP_MAX:
        best = _ray_scan_many(xs, ys, pts, origin, O, D, rational)
    else:
        slots = changes.tolist()
        slots.append(m - 1)    # the closing edge m -> 1 is always tested
        for slot in rational:
            slots = [j for j in slots
                     if (j - slot) % m not in (m - 2, m - 1, 0, 1)]
        best = _resolve_edges(None, pts, slots, origin, O, D)
    if not rational:
        return best
    return _settle_rational(best, pts, rational, origin, O, D)


# Above this many mark changes the ray kernel computes the crossing
# parameters of the straddling edges as arrays rather than one by one.
# Microseconds per call, loop / arrays (each including the mark pass), by the
# ray's mark changes, on every int64 ray scan of the benchmark's walk
# (comb 4000, spiral 2000) and small (n 120-320) workloads, seed 13; best
# of 3 interleaved timings per call on a 2-core Xeon:
#   changes    5-8        17-24      33-40      41-48      49-56
#   walk       12.9/30.7  18.8/29.8  26.2/30.2  30.4/30.3  34.3/30.2
#   small       8.4/22.5  14.5/23.4  22.2/29.0  25.6/30.2  28.6/26.1
#   changes    57-64      97-128     over 256
#   walk       38.5/30.4  64.2/30.7  223.5/38.8
#   small      29.1/23.5  (none above 96)
# A walk run makes 27k such scans, a third of them above 48 changes: they
# took 1.14 s with the loop alone, 0.83 s with the arrays alone and 0.64 s
# split at 48 (seed 424242 alike).
_RAY_LOOP_MAX = 48


def _ray_scan_many(xs, ys, pts, origin: int, O: Pt, D: Pt, rational):
    """_ray_kernel for rays that meet many edges: int64 crossing
    parameters of every straddling edge, a float prefilter, and exact
    bigint resolution of the near-minimal ones.  The crossings that read a
    rational slot (one of `rational`) are skipped, for _settle_rational."""
    m = xs.shape[0]
    ox, oy = O
    dx, dy = D
    side = np.sign(dx * ys - dy * xs - (dx * oy - dy * ox))
    online = side == 0
    straddle = side[:-1] * side[1:] < 0
    closing = side[-1] * side[0] < 0
    for slot in rational:
        for k in (slot - 1, slot, slot + 1 - m):
            online[k] = False
        for k in (slot - 2, slot - 1, slot, slot + 1):
            if k % m == m - 1:
                closing = False
            else:
                straddle[k % m] = False
    best = None
    for j in online.nonzero()[0].tolist():
        if j + 1 != origin:
            best = _vertex_crossing(best, pts, j + 1, O, D)
    starts = straddle.nonzero()[0]
    if closing:
        starts = np.append(starts, m - 1)
    if starts.size == 0:
        return best
    ends = starts + 1
    ends[-1] %= m
    ax = xs[starts]
    ay = ys[starts]
    ex = xs[ends] - ax
    ey = ys[ends] - ay
    num = (ax - ox) * ey - (ay - oy) * ex
    den = dx * ey - dy * ex
    fwd = ((num > 0) == (den > 0)) & (num != 0)
    if not fwd.any():
        return best
    starts = starts[fwd]
    num = num[fwd]
    den = den[fwd]
    tf = num.astype(np.float64) / den.astype(np.float64)
    near = (tf <= tf.min() * (1 + 1e-9) + 1e-12).nonzero()[0]
    for q in near.tolist():
        n_, d_ = int(num[q]), int(den[q])
        if d_ < 0:
            n_, d_ = -n_, -d_
        if best is None or n_ * best[1] < best[0] * d_:
            best = (n_, d_, int(starts[q]) + 1, None)
    return best


# ---------------------------------------------------------------------------
# reflex search inside a triangle

def max_angle_reflex_in_triangle(view, apex, p_n,
                                 hit_point: Pt) -> Optional[int]:
    """Reflex vertex strictly inside triangle (apex, p_n, hit_point) whose
    angle at the apex, measured from the apex->p_n direction, is largest.

    `apex` and `p_n` are each a local vertex index or an exact point.  Angles
    are compared with exact cross-sign tests only.  Returns None when the
    triangle contains no reflex vertex.
    """
    m = view.m
    at = view.point
    A = at(apex) if isinstance(apex, int) else apex
    P = at(p_n) if isinstance(p_n, int) else p_n
    H = hit_point
    ot = orient(A, P, H)
    if ot == COLLINEAR:
        raise PolygonInputError("degenerate reflex-search triangle")
    best = None
    best_dir = None
    # the int64 pass is only a float prefilter whose every candidate is
    # verified exactly below, so the corners (the hit point is rational as
    # a rule) need not be integers
    for k in _triangle_candidates_prefilter(view, A, P, H):
        if k == apex or k == p_n:
            continue
        X = at(k)
        if orient(A, P, X) != ot or orient(P, H, X) != ot \
                or orient(H, A, X) != ot:
            continue
        if orient(at(1 + (k - 2) % m), X, at(1 + k % m)) != COUNTERCLOCKWISE:
            continue  # not reflex
        dx = X[0] - A[0]
        dy = X[1] - A[1]
        if best is None:
            best, best_dir = k, (dx, dy)
        else:
            c = cross(best_dir[0], best_dir[1], dx, dy)
            if (c > 0 and ot > 0) or (c < 0 and ot < 0):
                best, best_dir = k, (dx, dy)
    return best


# absolute slack covering float64 rounding of orientation values built from
# coordinates below 2**27 (max |product| ~ 7e16, ulp 16, plus input rounding)
_TRI_FILTER_MARGIN = 4096.0


def _triangle_candidates_prefilter(view, A, P, H):
    """Superset of the reflex vertices inside triangle (A, P, H).

    Float filter with a conservative margin; every returned index is
    re-verified exactly by the caller.  Works for rational A/P/H too.
    """
    xs, ys = _exact_arrays(view)
    xf = xs.astype(np.float64)
    yf = ys.astype(np.float64)
    ax, ay = float(A[0]), float(A[1])
    px, py = float(P[0]), float(P[1])
    hx, hy = float(H[0]), float(H[1])
    o1 = (px - ax) * (yf - ay) - (py - ay) * (xf - ax)
    o2 = (hx - px) * (yf - py) - (hy - py) * (xf - px)
    o3 = (ax - hx) * (yf - hy) - (ay - hy) * (xf - hx)
    ot = float(np.sign((px - ax) * (hy - ay) - (py - ay) * (hx - ax)))
    mg = _TRI_FILTER_MARGIN
    maybe_inside = (ot * o1 > -mg) & (ot * o2 > -mg) & (ot * o3 > -mg)
    if not maybe_inside.any():
        return []
    # reflex test on slots 1..m-2; local vertices 1 and m, whose neighbors
    # wrap around, stay in the superset
    ex = xs[1:] - xs[:-1]
    ey = ys[1:] - ys[:-1]
    reflex = np.ones(xs.shape[0], dtype=bool)
    reflex[1:-1] = ex[:-1] * ey[1:] > ey[:-1] * ex[1:]
    sel = maybe_inside & reflex
    return (sel.nonzero()[0] + 1).tolist()
