"""Balanced partitioning against the partition validator."""
import math

import pytest

from polyws.errors import PolygonInputError
from polyws.oracle import generate, validate_partition
from polyws.partition import (BalancedCutFilter, _CutFound, partition,
                              piece_vertex_lists)
from polyws.workspace import SubpolygonView, component_sizes


def test_convex_sixty_with_s_five():
    poly = generate("convex", 60, 1)
    pieces, diagonals, meter, stats, rounds = partition(poly, 5)
    t = max(-(-60 // 5), 3)
    sizes = [p.m for p in pieces]
    assert all(t // 6 <= sz <= t + 2 for sz in sizes), sizes
    assert 60 / (t + 2) <= len(pieces) <= 6 * 60 / t + 2
    rep = validate_partition(poly, diagonals, piece_vertex_lists(pieces), 5)
    assert rep.ok, rep.errors
    assert meter.current_words == 0


def test_tiny_target_clamps_to_triangles():
    poly = generate("convex", 24, 2)
    pieces, diagonals, *_ = partition(poly, 24)
    assert all(p.m == 3 for p in pieces)
    assert len(diagonals) == 21   # a full triangulation
    rep = validate_partition(poly, diagonals, piece_vertex_lists(pieces), 24)
    assert rep.ok, rep.errors


def test_balanced_cut_filter_fan():
    # fan diagonals from vertex 1: the near-apex ones leave one side too
    # small, the middle one splits evenly
    poly = generate("convex", 24, 3)
    piece = SubpolygonView.whole(poly)
    assert component_sizes(1, 13, 24) == (13, 13)
    filt = BalancedCutFilter(piece)
    filt.emit_diagonal(1, 3)   # sides (3, 23); 3 < ceil(24/6): no cut
    with pytest.raises(_CutFound) as found:
        filt.emit_diagonal(1, 13)
    assert found.value.diagonal == (1, 13)


def test_balanced_cut_small_cases():
    # m=6: sides (4,4) accepted; (3,5) accepted since ceil(6/6)=1 <= 3
    poly = generate("convex", 6, 4)
    piece = SubpolygonView.whole(poly)
    for cut in [(1, 4), (1, 3)]:   # sides (4, 4) and (3, 5)
        with pytest.raises(_CutFound) as found:
            BalancedCutFilter(piece).emit_diagonal(*cut)
        assert found.value.diagonal == cut


def test_local_of_base_roundtrip():
    poly = generate("random", 30, 5)
    piece = SubpolygonView.whole(poly).subview([("range", 7, 20)])
    for i in range(1, piece.m + 1):
        assert piece.local_of_base(piece.base_ref(i)) == i


def test_partition_kinds_and_rounds_decay():
    for kind, n, s in [("random", 120, 10), ("comb", 240, 12),
                       ("spiral", 200, 9), ("convex", 300, 17)]:
        poly = generate(kind, n, 7)
        pieces, diagonals, meter, stats, round_maxima = partition(poly, s)
        t = max(-(-n // s), 3)
        rep = validate_partition(poly, diagonals, piece_vertex_lists(pieces), s)
        assert rep.ok, (kind, rep.errors)
        # a balanced cut leaves each side <= (5/6)m + 2 (shared endpoints),
        # so the envelope is the unrolled recurrence, not a flat (5/6)^i n
        envelope = float(n)
        for i, mx in enumerate(round_maxima, start=1):
            envelope = (5 / 6) * envelope + 2
            assert mx <= max(t + 2, envelope), (kind, i, mx)
        # geometric decay down to ~12, then an O(1)-per-round grind when the
        # target sits below the endpoint-sharing fixpoint
        assert len(round_maxima) <= math.ceil(
            math.log(max(n, 2), 6 / 5)) + 20


def test_bad_s_rejected():
    poly = generate("convex", 12, 1)
    with pytest.raises(PolygonInputError):
        partition(poly, 0)
    with pytest.raises(PolygonInputError):
        partition(poly, 13)
