"""Balanced partitioning against the partition validator."""
import math

import pytest

from polyws.errors import PolygonInputError
from polyws.oracle import generate, validate_partition
from polyws.partition import (BalancedCutFilter, _CutFound, cut_dual_tree,
                              partition, piece_vertex_lists)
from polyws.triangulate import ear_clip, ear_neighbors, required_budget
from polyws.workspace import SubpolygonView, component_sizes

KINDS = ("convex", "random", "monotone", "comb", "spiral")


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


def _uncut_counts(order, prv, nxt, cut_sides):
    """Brute force over the dual tree (ear_neighbors) rooted at the last
    triangle: per triangle, the triangles of its subtree that no cut side
    separates from it; and per cut side, the count of the triangle below it
    and whether the root is the triangle above it."""
    rows = ear_neighbors(order, prv, nxt)
    tris = [(prv[v], v, nxt[v]) for v in order]
    root = len(order) - 1
    parent = {root: None}
    bfs = [root]
    for t in bfs:
        for nb in rows[t]:
            if nb and nb - 1 not in parent:
                parent[nb - 1] = t
                bfs.append(nb - 1)
    assert len(bfs) == len(order)
    counts = [1] * len(order)
    below = {}
    for t in reversed(bfs[1:]):
        p = parent[t]
        j = rows[t].index(p + 1)
        side = frozenset((tris[t][j], tris[t][(j + 1) % 3]))
        if side in cut_sides:
            below[side] = (counts[t], p == root)
        else:
            counts[p] += counts[t]
    return counts, below


def test_cut_dual_tree_counts_match_brute_force():
    # acc[v] is the triangles of v's subtree that no cut took, as counted
    # over ear_neighbors' dual tree; every cut-off piece holds between a
    # half of cap (a third when cut at the root) and cap triangles
    for kind in KINDS:
        for n, seed in ((12, 1), (60, 2), (97, 3), (150, 4)):
            view = SubpolygonView.whole(generate(kind, n, seed))
            for cap in (1, 2, 3, 5, 8, 13, n // 3, n - 2):
                order, prv, nxt = ear_clip(view)
                prv0, nxt0 = list(prv), list(nxt)
                cuts, acc = cut_dual_tree(order, prv, nxt, cap)
                cut_sides = {frozenset((prv[x], nxt[x]))
                             for x in order[:cuts]}
                assert len(cut_sides) == cuts
                counts, below = _uncut_counts(order, prv0, nxt0, cut_sides)
                where = (kind, n, cap)
                assert [acc[v] for v in order] == counts, where
                assert set(below) == cut_sides, where
                assert counts[-1] <= cap, where
                for k, at_root in below.values():
                    assert -(-cap // (3 if at_root else 2)) <= k <= cap, where
                if cap >= n - 2:
                    assert cuts == 0 and counts[-1] == n - 2


def test_root_remainder_repair():
    # at s = 8 the clip's root keeps 3 vertices, below floor(t/6) = 6: it is
    # merged with a neighbour and the merged piece split at a balanced cut
    poly = generate("monotone", 320, 3005)
    pieces, diagonals, meter, _stats, round_maxima = partition(poly, 8)
    rep = validate_partition(poly, diagonals, piece_vertex_lists(pieces), 8)
    assert rep.ok, rep.errors
    assert min(p.m for p in pieces) >= 40 // 6
    assert round_maxima == [max(p.m for p in pieces)] and \
        round_maxima[0] <= 42
    assert meter.current_words == 0


def test_partition_sweep_one_clip_per_fitting_polygon(monkeypatch):
    # every polygon here fits in memory, so it is partitioned by one ear clip
    # in one round (a repair split triangulates the merged piece through
    # triangulate, not this binding)
    import polyws.partition as part
    clips = []
    monkeypatch.setattr(part, "ear_clip",
                        lambda view: clips.append(view.m) or ear_clip(view))
    for kind in KINDS:
        for n in (60, 120, 200, 300, 400, 500):
            for seed in range(1, 6):
                poly = generate(kind, n, seed)
                for s in (4, 8, 16, n // 10):
                    clips.clear()
                    pieces, diagonals, meter, _stats, round_maxima = \
                        partition(poly, s, seed=seed)
                    where = (kind, n, seed, s)
                    rep = validate_partition(
                        poly, diagonals, piece_vertex_lists(pieces), s)
                    assert rep.ok, (where, rep.errors)
                    assert meter.current_words == 0, where
                    # the budget is 64 * max(s, required_budget(n)): below
                    # the strict floor each piece works at the floor
                    assert meter.peak_words <= meter.budget_words == \
                        64 * max(s, required_budget(n)), where
                    assert clips == [n], where
                    t = max(-(-n // s), 3)
                    assert len(round_maxima) == 1 and \
                        round_maxima[0] <= t + 2, where
