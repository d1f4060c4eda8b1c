"""Shortest-path trees under the same workspace regime as the triangulator.

The geodesic walk, its recursion and the split that turns a walked stretch
into pieces are the triangulator's engine (triangulate.py: Run, solve,
_walk_level, Region); this module passes it the tree strategy, _Region,
which keeps only what differs from triangulation's.  After tau same-type
steps the split diagonal comes from extending the last walked edge to the
boundary, creating a virtual vertex that lives only inside the recursion and
is filtered at the sink (_Region.extend gives the next region and R's parts
around it).  Walked edges are emitted as parent edges.  Every subproblem is
rooted at its cut vertex nearest the original source, so each piece's local
tree is exactly the global tree restricted to it.

Pieces store their shared vertices as explicit cut entries of the descriptor
(`cuts`); a piece emits parent edges only for its chain vertices, because
every cut vertex had its parent edge reported by the walk (or the split)
that created it.  That makes the exactly-once guarantee structural rather
than bookkept.

Base cases: when the piece fits the budget, the funnel of Guibas et al.
(1987), which undoes an ear clip that keeps the root for its last triangle
and reads its chains from the tree it builds; else a constant-workspace pass
that runs the cone search for the first link of every vertex in turn, its
first shots aimed at the previous vertex and at that vertex's parent
(boundary neighbours nearly always share a parent, or one is the other's).
Both produce the same unique tree, and the tests cross-check them.
"""
from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

from . import geom
from .errors import InternalInvariantError, PolygonInputError
from .geodesic import first_link
from .triangulate import (AUDIT_MAX_M, Region, Run, ear_clip, in_interval,
                          setup_budget, solve)
from .workspace import (BasePolygon, CutVertex, MeterMode, RunStats,
                        SubpolygonView, WorkspaceMeter)

ROOT = 0   # parent reference used when the tree root is not a polygon vertex


class SptSink:
    """Write-only consumer of tree edges (parent, child) as base references."""

    def emit_edge(self, parent: int, child: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass


class CollectingSptSink(SptSink):
    def __init__(self):
        self.edges: List[Tuple[int, int]] = []

    def emit_edge(self, parent: int, child: int) -> None:
        self.edges.append((parent, child))

    def edge_set(self) -> Set[Tuple[int, int]]:
        return set(self.edges)


def _emit_for(sink: SptSink, view, parent_local: int,
              child_local: int) -> None:
    """Report the parent edge of a chain vertex; cut and virtual vertices were
    handled by whoever created them."""
    if view.is_cut(child_local):
        return
    if view.is_virtual(parent_local):
        raise InternalInvariantError("virtual vertex as a tree parent")
    rp = view.base_ref(parent_local)
    # a stored free point can only be the global root (placement splits)
    sink.emit_edge(ROOT if rp is None else rp, view.base_ref(child_local))


# ---------------------------------------------------------------------------
# base cases

def spt_constant_workspace(view, root_local: int, sink: SptSink, *,
                           rng: Optional[random.Random] = None,
                           stats: Optional[RunStats] = None,
                           meter: Optional[WorkspaceMeter] = None) -> None:
    """Emit (first-link-toward-root, q) for every chain vertex q of the view,
    in ascending q.  Each link is recomputed by the cone search, whose
    candidate sample is charged to the meter while the link runs.  Its first
    shots aim at q - 1 and at `hop`, the parent emitted for the previous
    chain vertex (the root before the first): neighbours along the boundary
    mostly share a parent, or one is the other's.  The words held, all
    within the caller's 32-word scope: the loop index, the root, `hop`, the
    two hints and the generator."""
    rng = rng if rng is not None else random.Random(0)
    link_rng = random.Random(rng.getrandbits(64))
    m = view.m
    hop = root_local
    for q in range(1, m + 1):
        if q == root_local or view.is_cut(q):
            continue
        hop = first_link(view, q, root_local, link_rng, stats, meter,
                         hints=(1 + (q - 2) % m, hop))
        _emit_for(sink, view, hop, q)


def spt_in_memory(view, root_local: int, sink: SptSink) -> None:
    """Emit the funnel's tree (funnel_parents) in ascending child order."""
    parent = funnel_parents(view, root_local)
    for q in range(1, view.m + 1):
        if q == root_local:
            continue
        _emit_for(sink, view, parent[q], q)


def funnel_parents(view, root: int) -> List[int]:
    """parent[q] for every vertex of the view, from the root: the funnel of
    Guibas et al. (1987) run over an ear clip that keeps the root for its
    last triangle, in reverse pop order.  Each funnel chain is a path of the
    tree being built, so `parent` holds the chains and `apex[x]` the apex of
    the funnel on the ring edge leaving x.  One strict turn test per chain
    makes straight vertices pass-through points, never parents."""
    # Undoing the clip grows a ring from the last triangle, which holds the
    # root: ear (p, v, n) = (prv[v], v, nxt[v]) puts v back between p and n.
    # The triangles not yet undone tile the ring as it was when v was
    # clipped, and a shortest path between two vertices of that ring never
    # enters a pocket clipped before v (it would leave across the diagonal it
    # came in by).  So every parent in the ring is final when it is set, each
    # non-root vertex is set once, and the tree paths from p and from n up to
    # apex[p], where they meet, are the two chains of the funnel on diagonal
    # (p, n).  v's path bends at the first x on p's chain with v strictly
    # left of parent[x] -> x, else at the first x on n's chain with v
    # strictly right of it (the ring is clockwise), else at the apex a; then
    # the funnels on (p, v) and (v, n) have apexes x and a when x is on p's
    # chain, a and x when it is on n's, and a and a otherwise.
    m = view.m
    order, prv, nxt = ear_clip(view, keep=root)
    last = order.pop()
    if root not in (prv[last], last, nxt[last]):
        raise InternalInvariantError("the clip's last triangle lacks the root")
    pts = (None,) + view.scan_points()
    parent = [root] * (m + 1)     # final for the last triangle's corners
    parent[root] = 0
    apex = [root] * (m + 1)

    def tangent(x, a, c, turn):
        """The first vertex on the tree path from x up to a (a excluded)
        whose edge up turns `turn` to c, or 0."""
        while x != a:
            up = parent[x]
            if geom.orient(pts[up], pts[x], pts[c]) == turn:
                return x
            x = up
        return 0

    for v in reversed(order):
        p, n = prv[v], nxt[v]
        a = apex[p]
        x = tangent(p, a, v, geom.COUNTERCLOCKWISE)
        if x:
            parent[v], apex[p], apex[v] = x, x, a
        else:
            x = tangent(n, a, v, geom.CLOCKWISE) or a
            parent[v], apex[p], apex[v] = x, a, x
    return parent


# ---------------------------------------------------------------------------
# the walk strategy (the engine is triangulate._walk_level)

def _funnel_words(m: int) -> int:
    return 10 * m + 32


class _Region(Region):
    """Tree strategy: every piece is rooted at its cut vertex nearest the
    source, local vertex 1, which `u_other` holds once the level has split
    (until then it is the level root w[0]).  Walked vertices and flagged
    ends are stored as cut entries (`cuts`), so that a piece emits parent
    edges for its chain vertices only."""

    __slots__ = ()
    cuts = True

    @staticmethod
    def base(view, run: Run) -> None:
        meter = run.meter
        want = _funnel_words(view.m)
        # prefer the funnel, but never at the price of blowing the budget:
        # the constant-workspace pass is the compliant (slower) alternative
        if meter.current_words + want <= meter.budget_words:
            with meter.scoped(want):
                spt_in_memory(view, 1, run.sink)
        else:
            with meter.scoped(32):
                spt_constant_workspace(view, 1, run.sink, rng=run.rng,
                                       stats=run.stats, meter=meter)

    def emit_walked(self, view, w, run: Run) -> None:
        for j in range(1, len(w)):
            if not view.is_virtual(w[j]):
                _emit_for(run.sink, view, w[j - 1], w[j])

    def far(self, view, w, run: Run):
        """Extend the last walked edge beyond its endpoint until it meets
        the boundary: the vertex it hits, or (edge, virtual vertex) for a
        crossing inside an edge."""
        a = view.point(w[-2])
        b = view.point(w[-1])
        toward = (2 * b[0] - a[0], 2 * b[1] - a[1])
        hit = geom.ray_shoot(view, w[-1], toward)
        if run.audit and self.u_other is not None \
                and (self.hi - self.lo) % view.m + 1 < view.m:
            # the split segment may end on the region's closing structure but
            # must never cross its chord into already-handled territory
            lo_pt = self.cut_v.point if self.cut_side == "lo" \
                else view.point(self.lo)
            hi_pt = self.cut_v.point if self.cut_side == "hi" \
                else view.point(self.hi)
            if geom.segments_properly_intersect(b, hit.point, hi_pt, lo_pt):
                raise InternalInvariantError(
                    "edge extension crossed the live alternating diagonal")
        if hit.vertex is not None:
            return hit.vertex
        return hit.edge, CutVertex(None, point=hit.point, virtual=True)

    def extend(self, view, w, hit, ulen):
        """The next region (lo, hi, lo_cut, hi_cut, cut_side, cut_v) and R's
        left and right parts (either may be None) after an edge extension
        from w[-1] that ended inside edge e1 at the virtual vertex cutv;
        ulen is the region's arc length."""
        m = view.m
        lo, hi = self.lo, self.hi
        off = lambda p: (p - lo) % m
        wt = w[-1]
        e1, cutv = hit
        e2 = 1 + e1 % m
        # a hit on the edge that holds the old virtual vertex lands on the
        # sub-edge between it and its end of the arc; that picks the side,
        # which the interval tests cannot ([wt..e1] wraps round for a
        # low-side hit), and the end keeps its cut flag
        closing = None
        if ulen < m and (self.cut_side == "hi" and e1 == hi
                         or self.cut_side == "lo" and e2 == lo):
            closing = self.cut_side
            end = hi if closing == "hi" else lo
            if not geom.on_closed_segment(cutv.point, self.cut_v.point,
                                          view.point(end)):
                raise InternalInvariantError(
                    "edge extension escaped past the closing virtual vertex")
        # any other hit lands on an edge wholly inside the region's arc; the
        # sole exception is a full-cycle region, whose closing edge is itself
        # real boundary
        edge_ok = closing is None and (off(e1) <= ulen - 2 or ulen == m)
        mid = m // 2
        if closing == "hi" or edge_ok and off(wt) <= off(e1) \
                and in_interval(mid, wt, e1, m):
            # next region [wt..e1] capped by the virtual vertex at its far end
            nxt = (wt, e1, True, closing == "hi" and self.hi_cut, "hi", cutv)
            right = (e2, hi) if in_interval(e2, lo, hi, m) \
                and off(e2) > off(e1) else None
            return nxt, (lo, wt), right
        if closing == "lo" or edge_ok and off(e2) <= off(wt) \
                and in_interval(mid, e2, wt, m):
            nxt = (e2, wt, closing == "lo" and self.lo_cut, True, "lo", cutv)
            left = (lo, e1) if in_interval(e1, lo, hi, m) \
                and off(e1) < off(e2) else None
            return nxt, left, (wt, hi)
        raise InternalInvariantError("edge extension left the open region")

    def r_root(self, w, u_new):
        return self.u_other if self.u_other is not None else w[0]

    @staticmethod
    def next_other(w, u_new, far):
        # the previous walked vertex for a near split; for a far split the
        # walked endpoint itself (the split vertex hangs beyond it on the
        # extension, hence farther)
        return w[-1] if far else w[-2]

    def terminal_root(self, m):
        return self.u_other


# ---------------------------------------------------------------------------
# placement handling and the public wrapper

def spt(polygon: BasePolygon, p, s: int, sink: Optional[SptSink] = None, *,
        mode: MeterMode = MeterMode.STRICT, seed: int = 0,
        stats: Optional[RunStats] = None,
        meter: Optional[WorkspaceMeter] = None,
        audit: Optional[bool] = None):
    """Shortest-path tree of p (a 1-based vertex index, an int, or an
    integer point of the closed polygon within |x|, |y| <= 2**26; anything
    else raises PolygonInputError).
    Emits (parent, child) base-reference pairs; a non-vertex root appears
    as parent 0.  Returns (sink, meter, stats)."""
    n = polygon.n
    tau, meter, stats = setup_budget(n, s, mode, meter, stats)
    if sink is None:
        sink = CollectingSptSink()
    if audit is None:
        audit = n <= AUDIT_MAX_M
    run = Run(_Region, sink, meter, stats, random.Random(seed), audit)

    if type(p) is int:
        if not 1 <= p <= n:
            raise PolygonInputError(f"root vertex {p} out of range")
        solve(SubpolygonView.whole(polygon, start=p), tau, run)
        sink.finish()
        return sink, meter, stats

    px, py = geom.input_point(p)
    whole = SubpolygonView.whole(polygon)
    if not geom.point_in_closed(whole, (px, py)):
        raise PolygonInputError("root point lies outside the polygon")
    for k in range(1, n + 1):
        if polygon.vertex(k) == (px, py):
            return spt(polygon, k, s, sink, mode=mode, seed=seed,
                       stats=stats, meter=meter, audit=audit)
    on_edge = next((k for k in range(1, n + 1) if geom.on_closed_segment(
        (px, py), polygon.vertex(k), polygon.vertex(1 + k % n))), None)
    root_cv = CutVertex(None, point=(px, py), virtual=False)
    if on_edge is not None:
        q = _visible_vertex_from(whole, (px, py), avoid=None)
        sink.emit_edge(ROOT, q)
        e1, e2 = on_edge, 1 + on_edge % n
        half1 = [("cut", root_cv)]
        if q != e2:
            half1.append(("range", e2, 1 + (q - 2) % n))
        half1.append(("cutpos", q))
        half2 = [("cut", root_cv), ("cutpos", q)]
        if q != e1:
            half2.append(("range", (q % n) + 1, e1))
        halves = [half1, half2]
    else:
        q = _visible_vertex_from(whole, (px, py), avoid=None)
        q2 = _visible_vertex_from(whole, (px, py), avoid=q, flip=True)
        sink.emit_edge(ROOT, q)
        sink.emit_edge(ROOT, q2)
        lo, hi = min(q, q2), max(q, q2)
        halves = [
            [("cut", root_cv), ("cutpos", lo),
             ("range", lo + 1, hi - 1), ("cutpos", hi)] if hi - lo > 1 else
            [("cut", root_cv), ("cutpos", lo), ("cutpos", hi)],
            [("cut", root_cv), ("cutpos", hi),
             ("range", (hi % n) + 1, 1 + (lo - 2) % n), ("cutpos", lo)]
            if (lo - hi) % n > 1 else
            [("cut", root_cv), ("cutpos", hi), ("cutpos", lo)],
        ]
    for segs in halves:
        try:
            child = whole.subview(segs)
        except PolygonInputError:
            continue  # a degenerate sliver with fewer than 3 vertices
        solve(child, tau, run)
    sink.finish()
    return sink, meter, stats


def _visible_vertex_from(view, p, avoid: Optional[int],
                         flip: bool = False) -> int:
    """A polygon vertex visible from point p: shoot a vertical ray (downward
    when `flip`), take the hit edge's endpoints, repair with the widest-angle
    reflex vertex if both are hidden; fall back to a direct scan."""
    toward = (p[0], p[1] - 1) if flip else (p[0], p[1] + 1)
    q = None
    hit = geom._ray_scan(view, p, toward)
    if hit is not None:
        if hit.vertex is not None:
            if geom.point_sees_vertex(view, p, hit.vertex):
                q = hit.vertex
        else:
            for cand in (hit.edge, 1 + hit.edge % view.m):
                if geom.point_sees_vertex(view, p, cand):
                    q = cand
                    break
            if q is None:
                q = _reflex_repair_from_point(view, p, hit)
    if q is not None and q == avoid:
        q = None
    if q is None:
        for cand in range(1, view.m + 1):
            if cand != avoid and geom.point_sees_vertex(view, p, cand):
                q = cand
                break
    if q is None:
        raise InternalInvariantError("no vertex visible from the root point")
    return q


def _reflex_repair_from_point(view, p, hit) -> Optional[int]:
    """Widest-angle reflex vertex inside the triangle (p, p_n, hit point),
    for either endpoint p_n of the hit edge, or None when no such triangle
    holds a visible reflex vertex (possible when p is collinear with two
    polygon vertices; the caller then scans directly)."""
    for p_n in (hit.edge, 1 + hit.edge % view.m):
        if geom.orient(p, view.point(p_n), hit.point) == geom.COLLINEAR:
            continue
        best = geom.max_angle_reflex_in_triangle(view, p, p_n, hit.point)
        if best is not None and geom.point_sees_vertex(view, p, best):
            return best
    return None
