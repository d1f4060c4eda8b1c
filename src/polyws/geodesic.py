"""Streaming geodesic provider.

A cursor yields the vertices of the shortest path between two vertices of a
view one at a time and can be paused and resumed freely: each link is
recomputed from scratch by a randomized cone-shrinking search.  Between links
the cursor keeps a constant number of words, among them the previous path
vertex: a geodesic wraps each reflex vertex it bends at like a string round a
peg, so the next link leaves beyond the extension of the one that arrived,
and the search starts from the part of the vertex's cone on that side.  The
string meets its bends on one boundary chain in chain order, so the first
ray shot aims at the next reflex vertex along the chain the path is heading
for, which mostly certifies the link without a candidate scan.
Within one link the search keeps up to SAMPLE_K reflex candidates from each
O(m) candidate scan, charged to the run's meter for the length of the link,
and aims several ray shots at them before it scans again; reflex-vertex
membership in the cone is never stored beyond that sample.
"""
from __future__ import annotations

import random
from bisect import insort
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional

from . import geom
from .errors import InternalInvariantError, PolygonInputError, UsageError
from .workspace import RunStats, WorkspaceMeter


class Cone:
    """Open angular sector at a vertex, swept counterclockwise from direction
    `a` to direction `b`.  The flags record whether a bound still coincides
    with the polygon edge it started on (the only directions on which a
    geodesic may leave the apex exactly)."""

    __slots__ = ("a", "b", "a_edge", "b_edge")

    def __init__(self, a, b):
        self.a = a
        self.b = b
        self.a_edge = True
        self.b_edge = True


def _initial_cone(view, q: int, pts=None) -> Cone:
    """q's cone between its two boundary edges.  The apex is an integer
    vertex: a virtual vertex is convex or straight, so it is neither a
    bend of a geodesic nor, being a cut vertex, a vertex of the
    constant-workspace pass or a piece's root."""
    if pts is None:
        pts = view.scan_points()
    m = len(pts)
    if q - 1 in view.rational_slots:
        raise InternalInvariantError(f"cone apex {q} is a rational vertex")
    q_pt = pts[q - 1]
    return Cone(_direction(q_pt, pts[(q - 2) % m]),
                _direction(q_pt, pts[q % m]))


# A cone bound's components stay below this, so that the int64 candidate
# scan's products, a bound component times a coordinate of at most 2**26,
# stay below 2**62.
_BOUND_LIMIT = 1 << 36


def _direction(q, v) -> tuple:
    """The direction from the integer point q to the vertex v as an integer
    vector: v - q itself, or, for a rational v (a virtual neighbour), its
    primitive integer multiple.  That one is short, because v lies on a line
    through q and another integer point: q is an endpoint of the edge that v
    splits, or the walked vertex whose extension made v.  A direction too
    long for the int64 scan raises InternalInvariantError."""
    dx = v[0] - q[0]
    dy = v[1] - q[1]
    if type(dx) is int and type(dy) is int:
        return dx, dy
    d = lcm(dx.denominator, dy.denominator)
    dx = int(dx * d)
    dy = int(dy * d)
    g = gcd(dx, dy)
    dx //= g
    dy //= g
    if max(abs(dx), abs(dy)) >= _BOUND_LIMIT:
        raise InternalInvariantError(
            "cone bound toward a rational vertex is too long for int64")
    return dx, dy


def _cone_kind(cone: Cone) -> int:
    """Sign of a x b: +1 for a convex cone, -1 for a reflex one, 0 for an
    exact half-plane."""
    ax, ay = cone.a
    bx, by = cone.b
    cab = ax * by - ay * bx
    if cab == 0 and ax * bx + ay * by >= 0:
        raise InternalInvariantError("cone bounds collapsed to one direction")
    return (cab > 0) - (cab < 0)


def _is_reflex_at(pts, i: int) -> bool:
    # counterclockwise turn at local vertex i along the clockwise ring
    m = len(pts)
    px, py = pts[(i - 2) % m]
    cx, cy = pts[i - 1]
    nx, ny = pts[i % m]
    return (cx - px) * (ny - py) - (cy - py) * (nx - px) > 0


def _bound_candidates(pts, q: int, cone: Cone, found: list) -> None:
    """Insert into the sorted `found` the boundary neighbors of q that still
    lie on their cone bound (a_edge / b_edge) and are reflex; they fail the
    strict inside test."""
    m = len(pts)
    if cone.a_edge:
        i = 1 + (q - 2) % m
        if i not in found and _is_reflex_at(pts, i):
            insort(found, i)
    if cone.b_edge:
        i = 1 + q % m
        if i not in found and _is_reflex_at(pts, i):
            insort(found, i)


def _candidate_scan(view, q: int, cone: Cone, pts=None) -> list:
    """Reflex cone candidates of q, in ascending local order.

    A vertex is a candidate when it is reflex and either strictly inside the
    cone or the boundary neighbor still flagged on a cone bound.  `pts` is
    the scan ring when the caller already holds it for this round.  The
    cone and reflex tests run as array arithmetic over the whole ring; local
    vertices 1 and m, whose neighbors wrap around, are tested in Python, and
    so are the rational slots and their neighbors, on the scaled ring.
    """
    if pts is None:
        pts = view.scan_points()
    kind = _cone_kind(cone)
    xs, ys = view.coord_arrays()
    m = len(pts)
    qx, qy = pts[q - 1]
    ax, ay = cone.a
    bx, by = cone.b
    # strictly inside bound a: a x (v - q) > 0, i.e. ax*y - ay*x > ka;
    # bound b: (v - q) x b > 0, i.e. by*x - bx*y > kb (q is on both)
    ka = ax * qy - ay * qx
    kb = by * qx - bx * qy
    # every product is below 2**62 in magnitude (see _BOUND_LIMIT)
    inside = ax * ys - ay * xs > ka
    if kind > 0:
        inside &= by * xs - bx * ys > kb
    elif kind < 0:
        inside |= by * xs - bx * ys > kb
    rational = view.rational_slots
    ring = pts
    # slots whose reflex test reads a rational slot (or wraps round), run
    # in Python with their cone test
    near = set()
    if rational:
        ring = geom._ScaledRing(pts, rational)
        d = ring.d
        for k in rational:
            vx, vy = ring.virt[k]
            a_in = ax * vy - ay * vx > ka * d
            b_in = by * vx - bx * vy > kb * d
            inside[k] = (a_in and b_in) if kind > 0 else \
                (a_in or b_in) if kind < 0 else a_in
        near.update(ring.near(-1, 1))
    edge_slots = [(k, inside[k]) for k in sorted(near | {0, m - 1})]
    ex = xs[1:] - xs[:-1]
    ey = ys[1:] - ys[:-1]
    mid = inside[1:-1]
    mid &= ex[:-1] * ey[1:] > ey[:-1] * ex[1:]
    found = (mid.nonzero()[0] + 2).tolist()
    if near:
        found = [i for i in found if i - 1 not in near]
    for k, ins in edge_slots:
        if ins and _is_reflex_at(ring, k + 1):
            insort(found, k + 1)
    if cone.a_edge or cone.b_edge:
        _bound_candidates(ring, q, cone, found)
    return found


# Candidates kept from one candidate scan.  Each ray shot aims at one of them;
# the search scans again only when every kept candidate has left the cone and
# the scan had more than SAMPLE_K of them.  Words beyond the cursor's own (one
# candidate) are charged for the length of each link, and fewer are kept when
# the meter has less room.
# The table below predates the ring shot (see _cone_search), which answers
# most links that have a previous vertex before any candidate scan, so K now
# matters mainly for links without one.
# CPU time per job relative to SAMPLE_K = 1 (the one-draw search), best of 7
# interleaved in-process runs, and candidate scans per link, on the
# benchmark's walk jobs (seed 1: comb 4000 at s = 96, spiral 2000 at s = 88)
# on a shared 2-core Xeon.  Medians of 5 runs put K = 8..64 within 0.58-0.97
# of K = 1 in no consistent order; the best-of-7 times favour 32:
#   SAMPLE_K                   1     8     16    32    64
#   tri comb 4000     time    1.00  0.70  0.73  0.55  0.73
#                     scans   6.53  2.54  2.10  1.85  1.73
#   spt comb 4000     time    1.00  0.74  0.68  0.61  0.63
#                     scans  10.11  3.95  3.33  2.96  2.69
#   tri spiral 2000   time    1.00  0.97  0.95  0.95  0.91
#   spt spiral 2000   time    1.00  0.98  0.82  0.76  0.82
#   both spiral jobs  scans   5.16  2.18  1.80  1.60  1.43
# Meter peaks were the same at every K.
SAMPLE_K = 32


def _sample_candidates(view, q: int, cone: Cone, k: int, rng: random.Random,
                       pts) -> tuple:
    """One candidate scan of the cone, cut down to at most k candidates:
    (kept, complete).  With at most k candidates all are kept, in ascending
    local order, and `complete` is True; otherwise k are drawn uniformly
    without replacement.  The draw reads only the candidate list, which the
    int64 scan gives in ascending order on every view, so the same
    generator state keeps the same vertices."""
    found = _candidate_scan(view, q, cone, pts)
    if len(found) <= k:
        return found, True
    return rng.sample(found, k), False


def _still_in_cone(pts, q: int, cone: Cone, kept: list) -> list:
    """The members of `kept` that the candidate scan of `cone` would list.

    `kept` holds reflex vertices only, so this is the scan's cone test alone:
    strictly inside the cone, or the boundary neighbor of q on a bound that
    still lies on its edge.  A narrowed cone lies inside the one the
    candidates came from, so the result is exactly the candidates a rescan
    would find among `kept`.
    """
    m = len(pts)
    kind = _cone_kind(cone)
    qx, qy = pts[q - 1]
    ax, ay = cone.a
    bx, by = cone.b
    ka = ax * qy - ay * qx
    kb = by * qx - bx * qy
    prv = 1 + (q - 2) % m if cone.a_edge else 0
    nxt = 1 + q % m if cone.b_edge else 0
    out = []
    for v in kept:
        cx, cy = pts[v - 1]
        inside = ax * cy - ay * cx > ka
        if kind > 0:
            inside = inside and by * cx - bx * cy > kb
        elif kind < 0:
            inside = inside or by * cx - bx * cy > kb
        if inside or v == prv or v == nxt:
            out.append(v)
    return out


def _check_vertices(m: int, **named) -> None:
    """Refuse any given local vertex index outside 1..m; a value is an index,
    a tuple of them or None."""
    for name, val in named.items():
        for v in val if isinstance(val, tuple) else (val,):
            if v is not None and not 1 <= v <= m:
                raise PolygonInputError(
                    f"{name} {v} is not a vertex of the {m}-vertex view")


def first_link(view, q: int, t: int, rng: random.Random,
               stats: Optional[RunStats] = None,
               meter: Optional[WorkspaceMeter] = None,
               prev: Optional[int] = None, *,
               hints: Iterable[int] = ()) -> int:
    """Second vertex of the geodesic from q to t (t itself when q sees t).

    One candidate scan keeps up to k reflex vertices inside the cone (see
    SAMPLE_K).  Each ray shot aims at a kept vertex r drawn uniformly, and
    either certifies r (target hidden behind it) or halves the cone to the
    side whose component contains t; the kept vertices that left the cone
    are dropped.  When none are left the search scans again, or returns t
    when the last scan kept every candidate.  Expected shots logarithmic in
    the candidate count.  The k - 1 words beyond the cursor's own are charged
    to `meter` until the call returns, and k shrinks to what the meter has
    room for, so a strict meter never refuses them; without a meter k is
    SAMPLE_K.

    `prev`, when given, is the vertex before q on the geodesic from prev to
    t through q (the cursor passes its previous vertex).  The path bends at
    q around q's exterior angle, so its next link leaves on the far side of
    the extension of prev -> q, and the search starts from that part of q's
    cone (see _narrow_past).  When one cone bound is then still on its edge,
    the path heads along the boundary that way, and the first shot aims at
    the first reflex vertex (or t) past q in that direction, before any
    hint.  The answer is the unique geodesic vertex with or without `prev`;
    the narrower start and the shot only save work: on the benchmark's comb
    4000 triangulation walk 1.04 rounds and 0.01 candidate scans per link,
    against 6.5 and 1.85 without `prev` (BENCH_cone.json).

    `hints` are vertices the caller expects to be the answer, shot at in
    order before the first candidate scan.  A hint is shot at only when the
    candidate scan could list it (reflex, and strictly inside the cone or
    q's neighbor on a bound still on its edge) or when it is t strictly
    inside the cone; others, q among them, are skipped.  A shot at a hint
    runs the round logic of any shot: it certifies the hint or returns t,
    or else halves the cone, so a wrong hint costs one ray scan and no
    draw.  The answer is the same with any hints.
    """
    m = view.m
    hints = tuple(hints)
    _check_vertices(m, q=q, t=t, prev=prev, hint=hints)
    if q == t:
        raise PolygonInputError("first_link needs distinct endpoints")
    if (t - q) % m == 1 or (q - t) % m == 1:
        return t  # boundary edges are trivially geodesics
    if meter is None:
        return _cone_search(view, q, t, rng, stats, SAMPLE_K, prev, hints)
    extra = max(0, min(SAMPLE_K - 1,
                       meter.budget_words - meter.current_words))
    meter.alloc(extra)
    try:
        return _cone_search(view, q, t, rng, stats, 1 + extra, prev, hints)
    finally:
        meter.release(extra)


# The narrowed bound is the extension e of the incoming link turned back toward
# the side it cuts off, k*e plus e turned by 90 degrees with k = 2**35 // |e|
# (max norm), so that a vertex exactly on the extension stays strictly inside
# the cone.  Coordinates are at most 2**26 in magnitude, so |e| <= 2**27, the
# turn is below atan(2**-8) (about |e| * 2**-35 radians) and the bound's
# components stay below 2**35 + 2**27, within _BOUND_LIMIT.
_TILT_SCALE = 1 << 35


def _narrow_past(cone: Cone, pts, q: int, prev: int) -> None:
    """Cut from q's initial cone the side of the extension e = q - prev of
    the link that arrived at q, the side that holds prev.

    The bound on prev's side is replaced by e turned slightly back toward
    it (see _TILT_SCALE) and loses its edge flag; the far bound and its flag
    stay.  When prev is q's boundary neighbor, prev lies on a bound itself
    and that bound is the one replaced, so the walk may go on along the far
    edge.  A cone that does not hold e strictly inside (q is not a bend of
    the path, as for a degenerate input) is left whole.
    """
    qx, qy = pts[q - 1]
    px, py = pts[prev - 1]
    ex = qx - px
    ey = qy - py
    ax, ay = cone.a
    bx, by = cone.b
    ae = ax * ey - ay * ex
    eb = ex * by - ey * bx
    kind = _cone_kind(cone)
    if kind > 0:
        inside = ae > 0 and eb > 0
    elif kind < 0:
        inside = ae > 0 or eb > 0
    else:
        inside = ae > 0
    if not inside:
        return
    k = _TILT_SCALE // max(abs(ex), abs(ey))
    if ae <= 0:
        # prev - q lies within a half turn counterclockwise of bound a, on a
        # itself when prev is q's neighbor there: a's side goes, b stays
        cone.a = (k * ex + ey, k * ey - ex)
        cone.a_edge = False
    else:
        cone.b = (k * ex - ey, k * ey + ex)
        cone.b_edge = False


def _ring_shot(pts, q: int, step: int, t: int) -> int:
    """The first vertex after q, stepping `step` (+1 or -1) along the ring,
    that is reflex or is t; q itself when a full turn meets neither."""
    m = len(pts)
    v = q
    for _ in range(m - 1):
        v = 1 + (v - 1 + step) % m
        if v == t or _is_reflex_at(pts, v):
            return v
    return q


def _cone_search(view, q: int, t: int, rng: random.Random,
                 stats: Optional[RunStats], k: int,
                 prev: Optional[int], hints: Iterable[int] = ()) -> int:
    m = view.m
    pts = view.scan_points()
    cone = _initial_cone(view, q, pts)
    if prev is not None:
        _narrow_past(cone, pts, q, prev)
        if cone.a_edge != cone.b_edge:
            # The path bends at q and heads along the boundary on the side
            # whose bound still lies on its edge.  A geodesic wraps each
            # chain like a string round pegs, meeting its bends on one chain
            # in chain order, so the next bend is mostly the first reflex
            # vertex past q that way: shoot there first.  A wrong shot only
            # halves the cone.  No bend lies strictly between q and that
            # vertex, so the runs stepped from successive bends on one chain
            # are disjoint: at most 2m steps per geodesic, one per vertex and
            # direction, against an O(m) scan per link.
            hints = chain((_ring_shot(pts, q, -1 if cone.a_edge else 1, t),),
                          hints)
    qx, qy = pts[q - 1]
    t_off = (t - q) % m
    kept = []
    complete = False
    hints = iter(hints)
    guard = 4 * m + 16
    for _ in range(guard):
        # the hints go before the first scan, each only if it could be
        # listed; t only when it is an integer vertex, as a ray scan aims
        # at integer points only
        r = None if kept else next(
            (h for h in hints if h != q and (
                h == t and t - 1 not in view.rational_slots
                or _is_reflex_at(pts, h))
             and _still_in_cone(pts, q, cone, [h])), None)
        if r is None:
            if not kept:
                if not complete:
                    if stats is not None:
                        stats.scans += 1
                    kept, complete = _sample_candidates(view, q, cone, k,
                                                        rng, pts)
                if not kept:
                    if stats is not None:
                        stats.rounds += 1   # the empty-cone check
                    return t
            r = kept[rng.randrange(len(kept))]
        if stats is not None:
            stats.rounds += 1
        hit = geom.ray_scan_light(view, q, r, pts)
        if hit is None:
            raise InternalInvariantError(
                "ray from boundary vertex escaped the polygon")
        kind, cut_idx, num, den = hit
        if kind == "vertex" and cut_idx == t:
            # the ray reaches t exactly: the open segment q..t is clear
            return t
        f_r = (r - q) % m
        # forward offset of the boundary cut made by the ray: a vertex hit
        # cuts exactly there, an edge hit cuts between the edge's endpoints
        f_cut = (cut_idx - q) % m
        if num > den:  # q sees r: three components, one hidden behind r
            if r == t:
                return t
            if f_r <= f_cut:
                if f_r < t_off <= f_cut:
                    return r  # t hidden
                next_side = t_off < f_r
            else:
                if f_cut < t_off < f_r:
                    return r  # t hidden
                next_side = t_off <= f_cut
        else:
            next_side = t_off <= f_cut
        rx, ry = pts[r - 1]
        ray_dir = (rx - qx, ry - qy)
        if next_side:
            cone.a = ray_dir
            cone.a_edge = False
        else:
            cone.b = ray_dir
            cone.b_edge = False
        kept = _still_in_cone(pts, q, cone, kept)
    raise InternalInvariantError("cone search failed to terminate")


class GeodesicCursor:
    """Pausable stream of geodesic vertices from `source` toward `target`.

    Stored state between links is O(1) words beyond the view: the previous
    and the current path vertex, the target, and the generator seed (WORDS,
    which also covers one sampled candidate: the ring shot's vertex, or one
    drawn from a candidate scan).  Each link passes the previous vertex to
    first_link, which starts its search beyond the extension of the last
    link with a shot at the next reflex vertex along q's boundary chain,
    and charges its further candidate words to `meter` while it runs.
    Iteration yields each vertex of the path after the source, ending with
    the target.
    """

    WORDS = 16

    def __init__(self, view, source: int, target: int,
                 rng: Optional[random.Random] = None,
                 stats: Optional[RunStats] = None,
                 meter: Optional[WorkspaceMeter] = None):
        _check_vertices(view.m, source=source, target=target)
        if source == target:
            raise PolygonInputError("cursor endpoints must differ")
        self.view = view
        self.prev = None
        self.current = source
        self.target = target
        self.rng = rng if rng is not None else random.Random(0)
        self.stats = stats
        self.meter = meter
        self.done = False

    def next_vertex(self) -> int:
        if self.done:
            raise UsageError("cursor is exhausted")
        nxt = first_link(self.view, self.current, self.target, self.rng,
                         self.stats, self.meter, self.prev)
        if self.stats is not None:
            self.stats.links += 1
        self.prev = self.current
        self.current = nxt
        if nxt == self.target:
            self.done = True
        return nxt

    def __iter__(self):
        return self

    def __next__(self) -> int:
        if self.done:
            raise StopIteration
        return self.next_vertex()
