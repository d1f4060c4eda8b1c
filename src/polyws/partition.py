"""Balanced partitioning: split a polygon by pairwise non-crossing diagonals
into pieces of roughly n/s vertices each.

A piece that fits in memory (triangulate.fits_in_memory) is ear-clipped once.
The clip's pop order is a post-order of its dual tree, rooted at the last
triangle, so one pass over it cuts off every subtree that would outgrow t - 2
triangles: each piece cut off holds at least half of that (a third for the
first cut at the root) and at most t vertices.  Only the root's remainder can
be smaller; when it is below floor(t/6) vertices it is merged with its
smallest neighbouring piece, and a merged piece above t vertices is split at
once at a balanced cut (Chazelle's polygon-cutting theorem: a sixth on each
side at least).

A piece too large to fit in memory is split by rounds instead: each round
triangulates it, streaming the diagonals into a filter that keeps the first
balanced cut (neither side below a sixth of the piece) and abandons the rest
of the stream, until the pieces fit.
"""
from __future__ import annotations

import random
from typing import List, Tuple

from .errors import InternalInvariantError, PolygonInputError
from .triangulate import (TriangulationSink, _in_memory_words,
                          check_workspace, ear_clip, fits_in_memory,
                          required_budget, triangulate)
from .workspace import (BUDGET_L, BasePolygon, MeterMode, RunStats,
                        SubpolygonView, WorkspaceMeter, component_sizes)


class _CutFound(Exception):
    def __init__(self, diagonal):
        self.diagonal = diagonal


class BalancedCutFilter(TriangulationSink):
    """Write-only sink that aborts the stream at the first balanced cut.

    Retains O(1) state: the piece reference and the threshold.  Diagonals
    arrive as base-index pairs and are mapped back to piece-local indices
    through the descriptor's arc arithmetic.
    """

    def __init__(self, piece: SubpolygonView):
        self.piece = piece
        self.need = -(-piece.m // 6)

    def emit_diagonal(self, a: int, b: int) -> None:
        la = self.piece.local_of_base(a)
        lb = self.piece.local_of_base(b)
        s1, s2 = component_sizes(la, lb, self.piece.m)
        if s1 >= self.need and s2 >= self.need:
            raise _CutFound((a, b))


def _tau(m: int, s: int) -> int:
    """The workspace parameter of a piece of m vertices."""
    return max(s, required_budget(m), 10)


def _find_cut(piece: SubpolygonView, s: int, meter, rng,
              stats) -> Tuple[int, int]:
    filt = BalancedCutFilter(piece)
    try:
        triangulate(piece, _tau(piece.m, s), filt, meter, rng=rng,
                    stats=stats)
    except _CutFound as found:
        return found.diagonal
    raise InternalInvariantError("triangulation stream held no balanced cut")


def _split_piece(piece: SubpolygonView, diagonal) -> List[SubpolygonView]:
    a, b = diagonal
    la = piece.local_of_base(a)
    lb = piece.local_of_base(b)
    if la > lb:
        la, lb = lb, la
    side1 = piece.subview([("range", la, lb)])
    side2 = piece.subview([("range", lb, la)])
    return [side1, side2]


def cut_dual_tree(order, prv, nxt, cap: int):
    """Cut the dual tree of ear_clip's (order, prv, nxt) into subtrees of at
    most `cap` >= 1 triangles, in one pass over the pop order.

    Returns (cuts, acc).  The k-th cut, k < cuts, is the diagonal (u, w) =
    (prv[order[k]], nxt[order[k]]): the pass writes it over the links of an
    entry it has passed (every cut takes at least one earlier entry with it),
    so the cuts need no words beyond the clip's.  The piece cut off there is
    the ring range u..w of local vertices, less the ranges cut inside it.
    acc[v], for each entry v of `order`, is the number of triangles of v's
    subtree that no cut took: at the last entry, the root's remainder.
    """
    # acc[u] counts the triangles behind the ring edge leaving u.  Ear
    # (p, v, n) closes the ring edges leaving p and v and leaves (p, n)
    # behind it, so its subtree holds 1 + acc[p] + acc[v] triangles; the last
    # triangle also closes the edge leaving n.  While the subtree is too
    # large, the larger child is cut off: the children sum to at least cap,
    # so it holds at least cap/2 (cap/3 for the first of the root's three).
    # After the ear, the slot of v is dead and keeps v's count.
    acc = [0] * len(prv)
    cuts = 0
    last = len(order)
    for i, v in enumerate(order, 1):
        p, n = prv[v], nxt[v]
        sides = [(p, v), (v, n)] if i < last else [(p, v), (v, n), (n, p)]
        kids = [acc[u] for u, _ in sides]
        size = 1 + sum(kids)
        while size > cap:
            j = kids.index(max(kids))
            x = order[cuts]
            prv[x], nxt[x] = sides[j]
            cuts += 1
            size -= kids[j]
            kids[j] = 0
        acc[p] = acc[v] = size
    return cuts, acc


def _nest(m: int, ranges):
    """The pieces that ring ranges cut a ring of m vertices into.  Ranges are
    (lo, hi) positions 0 <= lo < hi <= m (m is position 0 again) that nest
    or share at most an endpoint, sorted by lo and then by descending hi.
    Returns (parents, segs): piece 0 is what remains of the whole ring and
    piece k the one cut off at ranges[k - 1], whose enclosing piece is
    parents[k]; segs[k] lists the piece's closed position runs (a, b)."""
    parents = [-1]
    segs = [[]]
    stack = [[m, 0, 0]]          # an open piece: its hi, index, next position

    def close(hi, k, at):
        if k:
            segs[k].append((at, hi))
        elif at < m:
            segs[0].append((at, m - 1))

    for lo, hi in ranges:
        while stack[-1][0] < hi:
            close(*stack.pop())
        top = stack[-1]
        segs[top[1]].append((top[2], lo))
        top[2] = hi
        parents.append(top[1])
        segs.append([])
        stack.append([hi, len(segs) - 1, lo])
    while stack:
        close(*stack.pop())
    return parents, segs


def _clip_split(piece: SubpolygonView, t: int, s: int, meter, rng, stats):
    """Split a piece that fits in memory by one ear clip: returns the cut
    diagonals (base-index pairs) and the pieces, at most t vertices each (t +
    2 after a repair split), with their descriptors charged."""
    m = piece.m
    with meter.scoped(_in_memory_words(m)):
        order, prv, nxt = ear_clip(piece)
        # the clip's ring and block lists died with it: acc takes the words
        # of one of the four per-vertex arrays that _in_memory_words counts
        cuts, _ = cut_dual_tree(order, prv, nxt, t - 2)
        anchor = order[-1]
    # the cut list outlives the clip's words: 2 per cut, as the positions of
    # its range from the anchor, a corner of the last triangle and so inside
    # no range
    cut_words = 2 * cuts
    meter.alloc(cut_words)
    ranges = sorted((((prv[x] - anchor) % m, (nxt[x] - anchor - 1) % m + 1)
                     for x in order[:cuts]), key=lambda r: (r[0], -r[1]))
    del order, prv, nxt
    parents, segs = _nest(m, ranges)
    sizes = [sum(b - a + 1 for a, b in runs) for runs in segs]
    if sizes[0] < t // 6 and len(sizes) > 1:
        # the root's remainder is too small: drop the cut to its smallest
        # neighbour, which merges the two
        k = min((k for k in range(1, len(sizes)) if parents[k] == 0),
                key=sizes.__getitem__)
        del ranges[k - 1]
        parents, segs = _nest(m, ranges)

    def local(x):
        return (x + anchor - 1) % m + 1

    diagonals = [(piece.base_ref(local(lo)), piece.base_ref(local(hi)))
                 for lo, hi in ranges]
    parts = [piece.subview([("range", local(a), local(b)) for a, b in runs])
             for runs in segs]
    meter.alloc(sum(p.descriptor_words for p in parts))
    meter.release(cut_words)
    root = parts[0]
    if root.m > t:
        # a merged piece of at most t + floor(t/6) - 3 vertices: each side of
        # a balanced cut keeps at least a sixth, and at most t + 2
        cut = _find_cut(root, s, meter, rng, stats)
        halves = _split_piece(root, cut)
        meter.alloc(sum(h.descriptor_words for h in halves))
        meter.release(root.descriptor_words)
        diagonals.append(cut)
        parts[:1] = halves
    return diagonals, parts


def partition(polygon: BasePolygon, s: int, *,
              mode: MeterMode = MeterMode.PERMISSIVE, seed: int = 0):
    """Split the polygon by non-crossing diagonals into pieces of between
    floor(t/6) and t+2 vertices, t = max(ceil(n/s), 3).

    A piece that fits in memory is cut along the dual tree of one ear clip
    into pieces of at most t vertices, the root's remainder repaired as the
    module docstring says; a larger piece is halved at balanced cuts, round
    by round, until it fits.  Each round ends with every piece at most t + 2
    vertices or at most 5/6 of its piece plus 2.

    Returns (pieces, diagonals, meter, stats, round_maxima); pieces are views
    over the input polygon, diagonals base-index pairs.  Any 1 <= s <= n is
    accepted; each piece is handled at workspace parameter max(s,
    required_budget(m), 10) for its own size m.
    """
    check_workspace(s)
    n = polygon.n
    if not 1 <= s <= n:
        raise PolygonInputError("partition needs 1 <= s <= n")
    t = max(-(-n // s), 3)
    meter = WorkspaceMeter(BUDGET_L * max(s, required_budget(n)), mode)
    stats = RunStats()
    rng = random.Random(seed)
    pieces: List[SubpolygonView] = [SubpolygonView.whole(polygon)]
    charged = pieces[0].descriptor_words
    meter.alloc(charged)
    diagonals: List[Tuple[int, int]] = []
    round_maxima: List[int] = []
    guard = 0
    try:
        while any(p.m > t for p in pieces):
            guard += 1
            if guard > 4 * n:
                raise InternalInvariantError("partition failed to converge")
            big = [p for p in pieces if p.m > t]
            # pieces too large to fit in memory are halved first, and the
            # others wait for the round in which all fit; its clips then run
            # largest first, beside the fewest charged descriptors
            clip = all(fits_in_memory(p.m, _tau(p.m, s)) for p in big)
            nxt = [p for p in pieces if p.m <= t]
            for piece in sorted(big, key=lambda p: -p.m):
                if clip:
                    cuts, parts = _clip_split(piece, t, s, meter, rng, stats)
                elif fits_in_memory(piece.m, _tau(piece.m, s)):
                    nxt.append(piece)
                    continue
                else:
                    cuts = [_find_cut(piece, s, meter, rng, stats)]
                    parts = _split_piece(piece, cuts[0])
                    meter.alloc(sum(h.descriptor_words for h in parts))
                meter.release(piece.descriptor_words)
                charged += sum(h.descriptor_words for h in parts) \
                    - piece.descriptor_words
                diagonals.extend(cuts)
                nxt.extend(parts)
            pieces = nxt
            round_maxima.append(max(p.m for p in pieces))
    finally:
        meter.release(charged)
    return pieces, diagonals, meter, stats, round_maxima


def piece_vertex_lists(pieces: List[SubpolygonView]) -> List[List[int]]:
    """Base-index rings of the pieces (validators, serialization)."""
    return [[p.base_ref(i) for i in range(1, p.m + 1)] for p in pieces]
