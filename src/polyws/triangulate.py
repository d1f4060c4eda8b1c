"""Recursive workspace-bounded triangulation.

The driver walks the geodesic from the view's start vertex toward its midpoint
vertex, cutting the polygon at alternating diagonals as they appear (or are
manufactured after tau steps), recursing on the pieces with a geometrically
shrinking workspace allowance, and streaming every diagonal to a write-only
sink exactly once.  Small pieces are triangulated in memory by ear clipping.

The walk, its recursion (Run, solve, _walk_level) and the split that turns
a walked stretch into pieces (Region) are the one engine of the package:
shortest-path trees (spt.py) run it with their own Region subclass in place
of WalkState, the triangulation strategy defined here.
"""
from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import geom
from .errors import InternalInvariantError, PolygonInputError
from .geodesic import GeodesicCursor
from .workspace import (BUDGET_L, BasePolygon, MeterMode, RunStats,
                        SubpolygonView, WorkspaceMeter, is_alternating,
                        null_meter)

KAPPA = 0.9                  # workspace decay per recursion level
IN_MEMORY_FACTOR = 10        # fits in memory when 10*tau >= m
TAU_FLOOR = 10               # below this the recursion has run out of space
C0_LOG = 8                   # strict-mode precondition: s >= 8*ceil(log2 n)
WALK_SCALARS = 8             # per-level loop state charged to the meter

# expensive self-checks (visibility of produced diagonals etc.) are skipped
# above this view size; cheap structural checks always run
AUDIT_MAX_M = 4096


def required_budget(n: int) -> int:
    return C0_LOG * max(1, (n - 1).bit_length())


# ---------------------------------------------------------------------------
# sinks

class TriangulationSink:
    """Write-only consumer of triangulation output.  Emitted records are never
    read back by the algorithm."""

    adjacency = False

    def emit_diagonal(self, a: int, b: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass


class CollectingSink(TriangulationSink):
    """Keeps diagonals in emission order (tests, validators, CLI)."""

    def __init__(self):
        self.diagonals: List[Tuple[int, int]] = []

    def emit_diagonal(self, a: int, b: int) -> None:
        self.diagonals.append((min(a, b), max(a, b)))


class Triangle:
    __slots__ = ("tid", "corners", "neighbors", "missing")

    def __init__(self, tid, corners):
        self.tid = tid
        self.corners = corners            # base indices, boundary order
        self.neighbors = [None, None, None]  # tid | 0 (polygon boundary)
        self.missing = 0


class PendingAdjacency:
    """Half-records for diagonals whose second side has not been built yet.

    One constant-size entry per live delimiting diagonal, pointing at the
    triangle that waits for it; entries die when the neighboring subproblem
    reports its triangle.
    """

    ENTRY_WORDS = 5

    def __init__(self, meter: WorkspaceMeter):
        self.meter = meter
        self.half: Dict[Tuple[int, int], Tuple[Triangle, int]] = {}
        self.peak = 0

    def deposit_or_join(self, key, tri: Triangle, slot: int):
        """Returns the waiting partner (triangle, slot) when this completes
        the pair."""
        if key in self.half:
            other = self.half.pop(key)
            self.meter.release(self.ENTRY_WORDS, level=0)
            if other[0] is tri:
                raise InternalInvariantError(
                    f"diagonal {key} deposited twice by one triangle")
            return other
        self.half[key] = (tri, slot)
        self.meter.alloc(self.ENTRY_WORDS, level=0)
        self.peak = max(self.peak, len(self.half))
        return None


class AdjacencySink(TriangulationSink):
    """Collects triangles with neighbor references; a record is released as
    soon as every neighbor id is known.  Cross-subproblem sides wait in a
    PendingAdjacency keyed by the shared diagonal, whose entry holds the
    waiting triangle."""

    RECORD_WORDS = 8
    adjacency = True

    def __init__(self, meter: Optional[WorkspaceMeter] = None):
        self.meter = meter if meter is not None else null_meter()
        self.pending = PendingAdjacency(self.meter)
        self.records: List[Tuple] = []      # (tid, corners, neighbors)
        self.diagonals: List[Tuple[int, int]] = []
        self._next = 1

    def emit_diagonal(self, a: int, b: int) -> None:
        self.diagonals.append((min(a, b), max(a, b)))

    def alloc_id(self) -> int:
        tid = self._next
        self._next += 1
        return tid

    def add_triangle(self, tid: int, corners, sides) -> None:
        """sides[k] covers (corners[k], corners[k+1]): an int neighbor tid,
        0 for a polygon edge, or ('cut', key) for a shared diagonal."""
        tri = Triangle(tid, corners)
        for k, side in enumerate(sides):
            if isinstance(side, int):
                tri.neighbors[k] = side
                continue
            other = self.pending.deposit_or_join(side[1], tri, k)
            if other is None:
                tri.missing += 1
                continue
            holder, oslot = other
            tri.neighbors[k] = holder.tid
            holder.neighbors[oslot] = tid
            holder.missing -= 1
            if holder.missing == 0:
                self.meter.release(self.RECORD_WORDS, level=0)
                self.records.append((holder.tid, holder.corners,
                                     tuple(holder.neighbors)))
        if tri.missing == 0:
            self.records.append((tid, corners, tuple(tri.neighbors)))
        else:
            self.meter.alloc(self.RECORD_WORDS, level=0)

    def finish(self) -> None:
        if self.pending.half:
            raise InternalInvariantError(
                f"{len(self.pending.half)} pending diagonals at finish")


# ---------------------------------------------------------------------------
# in-memory base case: ear clipping

# An ear test loops over at most this many candidates of its slice and
# tests the rest of a longer one (all-integer rings only) as int64 arrays:
# a blocked ear tends to meet its blocker early, an ear that passes scans
# the whole slice.  Total CPU ms over every all-integer ear test of the
# benchmark's workloads (seed 1; inmem 74,650 tests, walk 23,833) and of
# combs 4000 and 6000 turned by 90 and 45 degrees (17,478 and 17,492), best
# of 3 per test on a 2-core Xeon:
#   split at   16   32   48   64   96  128  256   loop alone  arrays alone
#   inmem     436  355  312  292  272  267  260          228          1614
#   walk       95   69   57   51   48   44   46           39           440
#   comb 90   120  124  130  136  147  157  188          191           348
#   comb 45   380  423  470  515  606  687  930         2406           481
_EAR_LOOP_MAX = 64


def ear_clip(view, on_ear=None) -> List[Tuple[int, int, int]]:
    """Triangles of the view as (a, b, c) local triples in pop order.

    `on_ear(p, v, n)`, when given, is called as each ear is clipped, so a
    callback that raises stops the clipping there (the last triangle is not
    an ear).  Only reflex (or straight) vertices can block an ear; they are
    indexed in a _BlockIndex.  Exact arithmetic throughout; straight
    vertices are never chosen as ear apexes.
    """
    m = view.m
    if m == 3:
        return [(1, 2, 3)]
    ring = view.scan_points()
    if not view.all_int:
        # a positive scale keeps every orientation: clip the ring scaled by
        # its common denominator, on ints
        d = lcm(*(c.denominator for p in ring for c in p))
        ring = tuple((x.numerator * (d // x.denominator),
                      y.numerator * (d // y.denominator)) for x, y in ring)
    pts = (None,) + ring
    nxt = list(range(1, m + 1)) + [1]     # ring links, index 0 unused
    prv = [m, m] + list(range(1, m))
    dead = [False] * (m + 1)

    def blocks(i):
        return geom.orient(pts[prv[i]], pts[i], pts[nxt[i]]) != geom.CLOCKWISE

    block = [False] + [blocks(i) for i in range(1, m + 1)]
    index = _BlockIndex(pts, block, view.all_int)

    out = []
    alive = m
    stack = list(range(m, 0, -1))
    alive_at_rescan = m + 1
    while alive > 3:
        if not stack:
            if alive == alive_at_rescan:
                raise InternalInvariantError("ear clipping stalled")
            alive_at_rescan = alive
            stack = [v for v in range(m, 0, -1) if not dead[v]]
        v = stack.pop()
        if dead[v] or block[v] or index.blocked(prv[v], v, nxt[v]):
            continue
        p, n = prv[v], nxt[v]
        out.append((p, v, n))
        nxt[p] = n
        prv[n] = p
        dead[v] = True
        alive -= 1
        if on_ear is not None:
            on_ear(p, v, n)
        for u in (p, n):
            now = blocks(u)
            if now != block[u]:
                block[u] = now
                index.live += 1 if now else -1
                # re-index when a convex vertex turned reflex (the ring is
                # not simple) or when half the indexed vertices stopped
                # blocking, which keeps the slices short
                if now or 2 * index.live < index.size:
                    index = _BlockIndex(pts, block, view.all_int)
            stack.append(u)
    v = next(i for i in range(1, m + 1) if not dead[i])
    out.append((prv[v], v, nxt[v]))
    return out


def ear_neighbors(tris) -> List[List[int]]:
    """The dual tree of ear_clip's triangles, read from their pop order in
    O(m): row t holds the neighbors of tris[t] across its sides (a, b),
    (b, c) and (c, a), each as 1 + the neighbor's position in tris, or 0
    across a view edge."""
    # Ear (p, v, n) is clipped with p -> v -> n on the ring, so its sides
    # (p, v) and (v, n) are ring edges: view edges, or diagonals that earlier
    # ears closed.  Its side (n, p) becomes the ring edge leaving p, closed by
    # the next ear whose predecessor is p, or by the last triangle, whose
    # three sides are all ring edges.  closer[u] is the triangle that closed
    # the ring edge leaving u (0 while it is a view edge), so reading it pairs
    # the two triangles of each diagonal, both ways.
    closer = [0] * (len(tris) + 3)
    rows = []
    last = len(tris)
    for t, (p, v, n) in enumerate(tris, 1):
        row = [closer[p], closer[v], closer[n] if t == last else 0]
        for s in row:
            if s:
                rows[s - 1][2] = t
        closer[p] = t
        rows.append(row)
    return rows


class _BlockIndex:
    """The blocking vertices of an ear-clipping ring sorted by x and by y
    (ids, keys and, above _EAR_LOOP_MAX of them on an all-integer ring, a
    (2, k) int64 coordinate array per axis).  An ear test bisects its
    triangle's bounding box on both axes and checks the shorter slice,
    skipping vertices that no longer block (`block` is the caller's list):
    the closed triangle lies in its box, and clipping only turns blocking
    vertices convex, so every test answers as a scan of all would."""

    __slots__ = ("pts", "block", "axes", "size", "live")

    def __init__(self, pts, block, all_int):
        self.pts = pts
        self.block = block
        cands = [i for i in range(1, len(pts)) if block[i]]
        self.size = self.live = len(cands)
        arrays = all_int and len(cands) > _EAR_LOOP_MAX
        self.axes = []
        for k in (0, 1):
            ids = sorted(cands, key=lambda i: pts[i][k])
            xy = np.array([pts[i] for i in ids], dtype=np.int64).T.copy() \
                if arrays else None
            self.axes.append((ids, [pts[i][k] for i in ids], xy))

    def blocked(self, p, v, n) -> bool:
        """True when a blocking vertex other than p and n lies in the closed
        triangle (p, v, n)."""
        pts = self.pts
        ax, ay = pts[p]
        bx, by = pts[v]
        cx, cy = pts[n]
        x0, x1 = min(ax, bx, cx), max(ax, bx, cx)
        y0, y1 = min(ay, by, cy), max(ay, by, cy)
        (xids, xkeys, xxy), (yids, ykeys, yxy) = self.axes
        i0, i1 = bisect_left(xkeys, x0), bisect_right(xkeys, x1)
        j0, j1 = bisect_left(ykeys, y0), bisect_right(ykeys, y1)
        if i1 - i0 <= j1 - j0:
            ids, xy, lo, hi = xids, xxy, i0, i1
        else:
            ids, xy, lo, hi = yids, yxy, j0, j1
        e1x, e1y = bx - ax, by - ay
        e2x, e2y = cx - bx, cy - by
        e3x, e3y = ax - cx, ay - cy
        stop = hi if xy is None else min(hi, lo + _EAR_LOOP_MAX)
        block = self.block
        for x in ids[lo:stop]:
            if block[x]:
                px, py = pts[x]
                if x0 <= px <= x1 and y0 <= py <= y1 \
                        and e1x * (py - ay) - e1y * (px - ax) <= 0 \
                        and e2x * (py - by) - e2y * (px - bx) <= 0 \
                        and e3x * (py - cy) - e3y * (px - cx) <= 0 \
                        and x != p and x != n:
                    return True
        if stop == hi:
            return False
        qx, qy = xy[:, stop:hi]
        # e x (q - a) <= 0 as e x q <= e x a; each term is below 2**54
        hit = e1x * qy - e1y * qx <= e1x * ay - e1y * ax
        hit &= e2x * qy - e2y * qx <= e2x * by - e2y * bx
        hit &= e3x * qy - e3y * qx <= e3x * cy - e3y * cx
        hits = (ids[stop + k] for k in hit.nonzero()[0].tolist())
        return any(block[x] and x != p and x != n for x in hits)


def _in_memory_words(m: int) -> int:
    return 4 * m + 16


def triangulate_in_memory(view, sink: TriangulationSink,
                          meter: Optional[WorkspaceMeter] = None) -> None:
    """Ear-clip the view, emitting each diagonal as its ear is clipped (a
    sink that raises stops the clipping there), then the triangles with
    adjacency when the sink collects them."""
    meter = meter if meter is not None else null_meter()

    def emit_diag(a, _v, c):   # an ear's (a, c) is never a view edge
        ra, rc = view.base_ref(a), view.base_ref(c)
        if ra is None or rc is None:
            raise InternalInvariantError("virtual vertex in a diagonal")
        sink.emit_diagonal(ra, rc)

    with meter.scoped(_in_memory_words(view.m)):
        tris = ear_clip(view, emit_diag)
        if sink.adjacency:
            _emit_adjacency(view, tris, sink)


def _emit_adjacency(view, tris, sink: TriangulationSink) -> None:
    """Report the triangles with global ids, each side's neighbor a triangle
    of this view, 0 across a polygon edge, or the cut diagonal that the
    sink pairs with the neighboring piece's triangle."""
    n = view.base.n
    ids = [sink.alloc_id() for _ in tris]
    for t, (tri, row) in enumerate(zip(tris, ear_neighbors(tris))):
        sides = []
        for u, v, nb in zip(tri, tri[1:] + tri[:1], row):
            if nb:
                sides.append(ids[nb - 1])
                continue
            ru, rv = view.base_ref(u), view.base_ref(v)
            sides.append(0 if (rv - ru) % n in (1, n - 1)     # polygon edge
                         else ("cut", (min(ru, rv), max(ru, rv))))
        sink.add_triangle(ids[t], tuple(map(view.base_ref, tri)), sides)


# ---------------------------------------------------------------------------
# far case: manufacture an alternating diagonal after tau steps

def find_alternating_diagonal(view, u_prime: Optional[int], w: Sequence[int],
                              stats: Optional[RunStats] = None,
                              audit: bool = True) -> int:
    """Vertex u such that (u, w[-1]) is an alternating interior diagonal.

    `w` holds the walked same-type convex chain (w[0]..w[tau]); `u_prime` is
    the far endpoint of the current alternating diagonal, or None while it is
    still degenerate.  Three boundary scans: one ray shot, one visibility
    test, and (only when needed) one reflex search.
    """
    m = view.m
    tau = len(w) - 1
    if tau < 2:
        raise PolygonInputError("far case needs at least two walked steps")
    wt = w[-1]
    wp = w[-2]
    a = view.point(wp)
    b = view.point(wt)
    chain_sign = geom.orient(a, b, view.point(w[-3]))
    if chain_sign == geom.COLLINEAR:
        raise InternalInvariantError("walked chain is not strictly convex")
    scans = 0
    toward_prev = True
    if u_prime is not None:
        su = geom.orient(a, b, view.point(u_prime))
        if su == -chain_sign:
            toward_prev = False
    if toward_prev:
        hit = geom.ray_shoot(view, wt, wp)
        scans += 1
        if hit.ray_t <= 1:
            raise InternalInvariantError("walk edge blocked inside the polygon")
    else:
        hit = geom.ray_shoot(view, wt, u_prime)
        scans += 1
        if hit.vertex == u_prime or hit.ray_t > 1:
            if stats is not None:
                stats.far_scan_max = max(stats.far_scan_max, scans)
            return u_prime  # the ray reaches u_prime: directly visible
    if hit.edge is None:
        raise InternalInvariantError(
            "far-case ray crossed the boundary at a vertex (general position?)")
    e1 = hit.edge
    e2 = 1 + e1 % m
    s1 = geom.orient(a, b, view.point(e1))
    s2 = geom.orient(a, b, view.point(e2))
    want = -chain_sign
    if s1 == want and s2 == want:
        # both endpoints beyond the line: take the farther one
        c1 = abs((b[0] - a[0]) * (view.point(e1)[1] - a[1])
                 - (b[1] - a[1]) * (view.point(e1)[0] - a[0]))
        c2 = abs((b[0] - a[0]) * (view.point(e2)[1] - a[1])
                 - (b[1] - a[1]) * (view.point(e2)[0] - a[0]))
        p_n = e1 if c1 >= c2 else e2
    elif s1 == want:
        p_n = e1
    elif s2 == want:
        p_n = e2
    elif s1 == 0:
        p_n = e1
    elif s2 == 0:
        p_n = e2
    else:
        raise InternalInvariantError("hit edge lies on the walked chain's side")
    scans += 1
    if geom.is_visible(view, wt, p_n):
        u = p_n
    else:
        scans += 1
        u = geom.max_angle_reflex_in_triangle(view, wt, p_n, hit.point)
        if u is None:
            raise InternalInvariantError(
                "no reflex vertex inside the blocking triangle")
        if audit and not geom.is_visible(view, wt, u):
            raise InternalInvariantError("reflex repair produced a hidden vertex")
    if stats is not None:
        stats.far_scan_max = max(stats.far_scan_max, scans)
    if not is_alternating(u, wt, m):
        raise InternalInvariantError(
            "manufactured diagonal is not alternating")
    return u


# ---------------------------------------------------------------------------
# the walk engine, shared with shortest-path trees (spt.py)

class Run:
    """Shared configuration of one run of the walk engine.

    `strategy` is a Region subclass whose instances hold one walk level's
    region (WalkState here, spt._Region for trees).  The engine calls
    strategy.base(view, run) on pieces that fit in memory, strategy(m) at
    the start of each walk level, and on that instance, per stretch of
    walked vertices w (w[0] the current vertex, w[-1] the last one pulled):
    emit_walked(view, w, run), then far(view, w, run) when the stretch ran
    tau same-type steps, then the shared split(view, w, u_far, run) ->
    pieces (u_far is far()'s result, None after an alternating step); after
    the midpoint, the shared terminal(view, run) -> piece or None.
    """

    __slots__ = ("strategy", "sink", "meter", "stats", "rng", "audit")

    def __init__(self, strategy, sink, meter=None, stats=None, rng=None,
                 audit=True):
        self.strategy = strategy
        self.sink = sink
        self.meter = meter if meter is not None else null_meter()
        self.stats = stats if stats is not None else RunStats()
        self.rng = rng if rng is not None else random.Random(0)
        self.audit = audit


def setup_budget(n: int, s: int, mode: MeterMode,
                 meter: Optional[WorkspaceMeter],
                 stats: Optional[RunStats]):
    """Clamp s to n, enforce the strict-mode precondition s >= 8*ceil(log2 n)
    (waived when the polygon fits in memory), and make the meter (L*s words)
    and counters the caller did not pass.  Returns (tau, meter, stats)."""
    if s > n:
        s = n
    if mode is MeterMode.STRICT and s < required_budget(n) \
            and IN_MEMORY_FACTOR * s < n:
        raise PolygonInputError(
            f"strict mode requires s >= {required_budget(n)} for n={n}")
    if meter is None:
        meter = WorkspaceMeter(BUDGET_L * s, mode)
    if stats is None:
        stats = RunStats()
    return max(s, TAU_FLOOR), meter, stats


def solve(root, tau: float, run: Run) -> None:
    """Run the engine on a top-level view, charging its descriptor."""
    with run.meter.scoped(root.descriptor_words):
        _recurse(root, tau, run, 0)


def _recurse(view, tau: float, run: Run, level: int) -> None:
    m = view.m
    if m < 3:
        return
    run.stats.depth = max(run.stats.depth, level)
    meter = run.meter
    with meter.frame():
        if IN_MEMORY_FACTOR * tau >= m:
            run.strategy.base(view, run)
        elif tau > TAU_FLOOR:
            _walk_level(view, int(tau), run, level)
        elif meter.mode is MeterMode.STRICT:
            # unreachable when s >= 8*ceil(log2 n)
            raise InternalInvariantError(
                f"recursion ran out of workspace (tau={tau:.1f}, m={m})")
        else:
            meter.overage_flag = True   # permissive runs fall back
            run.strategy.base(view, run)


def _walk_level(view, tau: int, run: Run, level: int) -> None:
    """Walk the geodesic from local vertex 1 to the midpoint in stretches
    that end at an alternating diagonal (or, after tau same-type steps, at
    one the far case supplies), recursing on the pieces each stretch cuts
    off, then on the terminal piece."""
    m = view.m
    mid = m // 2
    meter = run.meter
    stats = run.stats
    region = run.strategy(m)
    cursor_rng = random.Random(run.rng.getrandbits(64))
    with meter.scoped(GeodesicCursor.WORDS + WALK_SCALARS):
        cursor = GeodesicCursor(view, 1, mid, cursor_rng, stats, meter)
        v_c = 1
        while v_c != mid:
            w = []    # the walk buffer: one charged word per entry
            try:
                meter.alloc(1)
                w.append(v_c)
                far = False
                while True:
                    nxt = cursor.next_vertex()
                    meter.alloc(1)
                    w.append(nxt)
                    if is_alternating(w[-2], nxt, m):
                        break
                    if len(w) > tau:
                        far = True
                        break
                region.emit_walked(view, w, run)
                u_far = None
                if far:
                    stats.far_calls += 1
                    u_far = region.far(view, w, run)
                for child in region.split(view, w, u_far, run):
                    stats.pieces += 1
                    with meter.scoped(child.descriptor_words):
                        _recurse(child, tau * KAPPA, run, level + 1)
            finally:
                meter.release(len(w))
            v_c = w[-1]
        child = region.terminal(view, run)
        if child is not None:
            stats.pieces += 1
            with meter.scoped(child.descriptor_words):
                _recurse(child, tau * KAPPA, run, level + 1)


def interval_len(lo, hi, m):
    return (hi - lo) % m + 1


def in_interval(x, lo, hi, m):
    return (x - lo) % m <= (hi - lo) % m


def segs_size(segs, m):
    """Vertex count of a piece built from these boundary segments."""
    return sum(interval_len(s[1], s[2], m) if s[0] == "range" else 1
               for s in segs)


def rooted_piece(view, segs, root: int):
    """Child view over `segs`, rotated so that the parent's local vertex
    `root` is its local vertex 1, where the child's walk starts."""
    child = view.subview(segs)
    root_ref = view.base_ref(root)
    root_pt = view.point(root)
    for k in range(1, child.m + 1):
        if child.base_ref(k) == root_ref and child.point(k) == root_pt:
            if k == 1:
                return child
            return child.subview([("range", k, 1 + (k - 2) % child.m)])
    raise InternalInvariantError("piece root missing from its ring")


def pick_side(m, e1, e2, lo):
    """The side of diagonal (e1, e2) that keeps the midpoint, as (lo, hi) of
    the next region, with the endpoints ordered along the region that starts
    at lo.  A tie (a cut incident to the midpoint) takes the smaller side, so
    that the terminal piece obeys the half bound."""
    mid = m // 2
    x, y = (e1, e2) if (e1 - lo) % m <= (e2 - lo) % m else (e2, e1)
    # the sides x..y and y..x cover the cycle and share only x and y
    if in_interval(mid, x, y, m) and (mid not in (x, y)
                                      or (y - x) % m <= (x - y) % m):
        return x, y
    return y, x


def walk_pockets(w, far, lo, m):
    """(pa, pb, root) per walked edge that cuts off a pocket, its endpoints
    ordered along the region that starts at lo.  In the near case the last
    edge is the new alternating diagonal itself, whose far side is the next
    region."""
    pockets = []
    for j in range(len(w) - 1 if far else len(w) - 2):
        pa, pb = w[j], w[j + 1]
        if (pa - lo) % m > (pb - lo) % m:
            pa, pb = pb, pa
        if (pb - pa) % m >= 2:
            pockets.append((pa, pb, w[j]))
    return pockets


def part_segs(plo, phi, cutset, walked, pockets, m):
    """Ring segments of the arc [plo..phi] of a piece (a part of the region
    R that stays after a cut, a pocket, the terminal piece): walked vertices
    and endpoints listed in `cutset` become cut entries, pocket interiors
    are jumped, everything else stays chain."""
    stations = sorted({plo, phi} | {x for x in walked
                                    if in_interval(x, plo, phi, m)},
                      key=lambda p: (p - plo) % m)
    jumps = {(a, b) for a, b, _s in pockets}
    segs = []
    for si, st in enumerate(stations):
        segs.append(("cutpos", st) if st in cutset else ("range", st, st))
        if si + 1 < len(stations):
            nxt = stations[si + 1]
            if (st, nxt) in jumps:
                continue  # pocket interior belongs to the pocket piece
            if (nxt - st) % m > 1:
                segs.append(("range", (st % m) + 1, 1 + (nxt - 2) % m))
    return segs


class Region:
    """One walk level's region and the split that both strategies share.

    The region is the boundary arc lo..hi closed by the current alternating
    diagonal, plus an optional virtual vertex `cut_v` at its `cut_side` end
    ('lo' | 'hi' | None; only a tree's edge extension makes one).  `u_other`
    is the strategy's end of that diagonal, None while it is degenerate.
    lo_cut/hi_cut tell whether an end's parent edge is handled elsewhere
    (walked vertices, the level root); a strategy with `cuts` set stores
    those ends and walked vertices as cut entries of its pieces.

    A subclass supplies base, emit_walked and far (see Run), next_other (its
    end of a new diagonal) and the roots of R, the piece a stretch cuts off
    (r_root), and of the terminal piece (terminal_root).  A far() result
    (edge, CutVertex) is an edge extension that ended inside that edge; the
    subclass's extend() gives the split that follows.
    """

    __slots__ = ("lo", "hi", "lo_cut", "hi_cut", "cut_side", "cut_v",
                 "u_other")
    cuts = False

    def __init__(self, m: int):
        self.lo = 1
        self.hi = m
        self.lo_cut = True        # the level root's edge belongs to the parent
        self.hi_cut = False       # an ordinary chain vertex
        self.cut_side = None
        self.cut_v = None
        self.u_other: Optional[int] = None

    def cutset(self, walked):
        """What part_segs stores as cut entries: with `cuts` set, the walked
        vertices and the region's flagged ends; else nothing."""
        if not self.cuts:
            return ()
        out = set(walked)
        if self.lo_cut:
            out.add(self.lo)
        if self.hi_cut:
            out.add(self.hi)
        return out

    def split(self, view, w, u_far, run: Run):
        """Pieces cut off by one stretch, R first, then the pockets; advances
        the region to the side of the new diagonal that keeps the midpoint."""
        m = view.m
        i = len(w) - 1
        far = u_far is not None
        lo, hi = self.lo, self.hi
        ulen = interval_len(lo, hi, m)
        if run.audit and any((v - lo) % m >= ulen for v in w):
            raise InternalInvariantError("walked vertex left the region")

        if isinstance(u_far, tuple):
            u_new = None
            nxt, left, right = self.extend(view, w, u_far, ulen)
        else:
            u_new = u_far if far else w[i - 1]
            if {u_new, w[i]} == {lo, hi} and self.u_other is not None:
                # the walk stepped onto the far endpoint of the current
                # diagonal: nothing is split off, the region merely re-anchors
                if run.audit and i != 1:
                    raise InternalInvariantError(
                        "a re-anchoring stretch took more than one step")
                self.u_other = u_new
                self.lo_cut = self.hi_cut = True
                return []
            nxt_lo, nxt_hi = pick_side(m, u_new, w[i], lo)
            # both diagonal endpoints are handled: walked now, or (for an
            # exact extension hit) owned by R's subtree below
            nxt = (nxt_lo, nxt_hi, True, True, None, None)
            if (nxt_lo - lo) % m <= (nxt_hi - lo) % m:
                # both cut endpoints stay on R's ring even when they coincide
                # with the region endpoints (then the part is a single vertex)
                left, right = (lo, nxt_lo), (nxt_hi, hi)
            else:
                # the midpoint's side runs through hi and lo, so R wraps
                # round: only the first split of a full cycle may do that
                if run.audit and not (ulen == m and self.cut_side is None):
                    raise InternalInvariantError(
                        "midpoint outside the forward side of the cut")
                left, right = (nxt_hi, nxt_lo), None

        pockets = walk_pockets(w, far, lo, m)
        cutset = self.cutset(w)
        new_v = nxt[-1]       # the split's virtual vertex, if any
        # R's ring: [old lo-side virtual] left part [new virtual] right part
        # [old hi-side virtual], pockets jumped, closed by the old diagonal
        segs = [("cut", self.cut_v)] if self.cut_side == "lo" else []
        if left is not None:
            segs += part_segs(left[0], left[1], cutset, w, pockets, m)
        if new_v is not None:
            segs.append(("cut", new_v))
        if right is not None:
            segs += part_segs(right[0], right[1], cutset, w, pockets, m)
        if self.cut_side == "hi":
            segs.append(("cut", self.cut_v))

        pieces = []
        if segs_size(segs, m) >= 3:
            child = rooted_piece(view, segs, self.r_root(w, u_new))
            if run.audit:
                # every view vertex on R's ring is walked (i + 1 of them) or
                # lies in the half of the view across the walked chain, so a
                # proper alternating diagonal obeys the half+i bound (+2
                # because closed components share the diagonal endpoints).
                # A virtual vertex on R's ring, the region's old one or the
                # split's new one, is no view vertex, so each adds one.  A
                # boundary-edge cut splits off nothing, so only the 6/10
                # decay binds.
                if u_new is None or (w[i] - u_new) % m not in (1, m - 1):
                    bound = -(-m // 2) + i + 2 \
                        + (self.cut_side is not None) + (new_v is not None)
                    if child.m > bound:
                        raise InternalInvariantError(
                            f"R size {child.m} breaks the split bound {bound}")
                if child.m > 0.6 * m + 3:
                    raise InternalInvariantError(
                        f"R size {child.m} breaks the 6/10 decay")
            pieces.append(child)
        for (pa, pb, s) in pockets:
            child = rooted_piece(view, part_segs(pa, pb, cutset, (), (), m), s)
            # the half bound implies the 6/10 decay: ceil(m/2) + 1 <=
            # 0.6m + 2 for every m
            if run.audit and child.m > -(-m // 2) + 1:
                raise InternalInvariantError("pocket breaks the half bound")
            pieces.append(child)
        (self.lo, self.hi, self.lo_cut, self.hi_cut, self.cut_side,
         self.cut_v) = nxt
        self.u_other = self.next_other(w, u_new, far)
        return pieces

    def terminal(self, view, run: Run):
        """The region left when the walk reaches the midpoint, rooted at the
        strategy's terminal_root."""
        m = view.m
        segs = part_segs(self.lo, self.hi, self.cutset(()), (), (), m)
        if self.cut_side == "lo":
            segs.insert(0, ("cut", self.cut_v))
        elif self.cut_side == "hi":
            segs.append(("cut", self.cut_v))
        if segs_size(segs, m) < 3:
            return None
        child = rooted_piece(view, segs, self.terminal_root(m))
        # one half of the view, plus its virtual vertex
        bound = -(-m // 2) + 1 + (self.cut_side is not None)
        if run.audit and child.m > bound:
            raise InternalInvariantError("terminal piece too large")
        return child


# ---------------------------------------------------------------------------
# the triangulation strategy

class WalkState(Region):
    """Triangulation strategy: `u_other` is the far endpoint of the current
    alternating diagonal; R is rooted at the new diagonal's far endpoint and
    the terminal piece at the midpoint."""

    __slots__ = ()

    @staticmethod
    def base(view, run: Run) -> None:
        triangulate_in_memory(view, run.sink, run.meter)

    def _current_diagonal(self, w):
        return (w[0], self.u_other) if self.u_other is not None else None

    def emit_walked(self, view, w, run: Run) -> None:
        a_c = self._current_diagonal(w)
        for j in range(1, len(w)):
            _maybe_emit(view, w[j - 1], w[j], a_c, run)

    def far(self, view, w, run: Run) -> int:
        """Manufacture an alternating diagonal (w[-1], u) and emit it."""
        u = find_alternating_diagonal(view, self.u_other, w, run.stats,
                                      audit=run.audit)
        _maybe_emit(view, u, w[-1], self._current_diagonal(w), run)
        return u

    @staticmethod
    def r_root(w, u_new):
        return u_new

    @staticmethod
    def next_other(w, u_new, far):
        return u_new

    @staticmethod
    def terminal_root(m):
        return m // 2


def _maybe_emit(view, a, b, a_c, run: Run):
    m = view.m
    if (b - a) % m in (1, m - 1):
        return  # boundary element of the view: polygon edge or parent cut
    if a_c is not None and {a, b} == {a_c[0], a_c[1]}:
        return  # the current alternating diagonal was emitted previously
    ra = view.base_ref(a)
    rb = view.base_ref(b)
    if ra is None or rb is None:
        raise InternalInvariantError("virtual vertex in emitted diagonal")
    if run.audit:
        n = view.base.n
        if (rb - ra) % n in (1, n - 1):
            raise InternalInvariantError("emitted diagonal is a base edge")
        if not geom.is_visible(view, a, b):
            raise InternalInvariantError("emitted diagonal leaves the polygon")
    run.sink.emit_diagonal(ra, rb)


def triangulate(view, tau: float, sink: TriangulationSink,
                meter: Optional[WorkspaceMeter] = None, *,
                rng: Optional[random.Random] = None,
                stats: Optional[RunStats] = None,
                audit: Optional[bool] = None) -> RunStats:
    """Triangulate a view, starting the geodesic walk at its local vertex 1.

    Emits exactly m-3 interior diagonals to the sink (plus triangles with
    adjacency when the sink collects them).  `tau` is the workspace parameter
    of the top level; strict meters enforce the configured word budget.
    """
    if tau < TAU_FLOOR:
        raise PolygonInputError(f"tau must be at least {TAU_FLOOR}")
    if audit is None:
        audit = view.m <= AUDIT_MAX_M
    run = Run(WalkState, sink, meter, stats, rng, audit)
    solve(view, tau, run)
    sink.finish()
    return run.stats


# ---------------------------------------------------------------------------
# public wrapper

def triangulate_polygon(polygon: BasePolygon, s: int,
                        sink: Optional[TriangulationSink] = None, *,
                        mode: MeterMode = MeterMode.STRICT,
                        seed: int = 0,
                        stats: Optional[RunStats] = None,
                        meter: Optional[WorkspaceMeter] = None,
                        audit: Optional[bool] = None):
    """Triangulate a whole polygon under an s-word workspace regime.

    Returns (sink, meter, stats).  In strict mode s must satisfy
    s >= 8*ceil(log2 n) so the recursion cannot run out of space.
    """
    tau, meter, stats = setup_budget(polygon.n, s, mode, meter, stats)
    if sink is None:
        sink = CollectingSink()
    triangulate(SubpolygonView.whole(polygon), tau, sink, meter,
                rng=random.Random(seed), stats=stats, audit=audit)
    return sink, meter, stats
