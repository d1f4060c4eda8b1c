"""Balanced partitioning: split a polygon by pairwise non-crossing diagonals
into pieces of roughly n/s vertices each.

Each round triangulates every oversized piece, streaming the diagonals into a
filter that keeps the first balanced cut (neither side below a sixth of the
piece) and abandons the rest of the stream.  A piece never survives a round
unsplit, so sizes decay geometrically until they fit the target.
"""
from __future__ import annotations

import random
from typing import List, Tuple

from .errors import InternalInvariantError, PolygonInputError
from .triangulate import TriangulationSink, required_budget, triangulate
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


def _find_cut(piece: SubpolygonView, s: int, meter, rng,
              stats) -> Tuple[int, int]:
    tau = max(s, required_budget(piece.m), 10)
    filt = BalancedCutFilter(piece)
    try:
        triangulate(piece, tau, filt, meter, rng=rng, stats=stats)
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


def partition(polygon: BasePolygon, s: int, *,
              mode: MeterMode = MeterMode.PERMISSIVE, seed: int = 0):
    """Split the polygon by non-crossing diagonals into pieces of between
    floor(t/6) and t+2 vertices, t = max(ceil(n/s), 3).

    Returns (pieces, diagonals, meter, stats, round_maxima); pieces are views
    over the input polygon, diagonals base-index pairs.  Any 1 <= s <= n is
    accepted; per-piece triangulations raise their workspace to the level
    their own size requires.
    """
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
            nxt: List[SubpolygonView] = []
            for piece in pieces:
                if piece.m <= t:
                    nxt.append(piece)
                    continue
                cut = _find_cut(piece, s, meter, rng, stats)
                diagonals.append(cut)
                halves = _split_piece(piece, cut)
                meter.alloc(sum(h.descriptor_words for h in halves))
                meter.release(piece.descriptor_words)
                charged += sum(h.descriptor_words for h in halves) \
                    - piece.descriptor_words
                nxt.extend(halves)
            pieces = nxt
            round_maxima.append(max(p.m for p in pieces))
    finally:
        meter.release(charged)
    return pieces, diagonals, meter, stats, round_maxima


def piece_vertex_lists(pieces: List[SubpolygonView]) -> List[List[int]]:
    """Base-index rings of the pieces (validators, serialization)."""
    return [[p.base_ref(i) for i in range(1, p.m + 1)] for p in pieces]
