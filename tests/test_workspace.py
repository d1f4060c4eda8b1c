"""Meter ledger, the alternation test, and subpolygon view tests."""
import random

import pytest

from conftest import separates
from polyws.errors import BudgetExceededError, InternalInvariantError
from polyws.workspace import (BasePolygon, CutVertex, MeterMode,
                              SubpolygonView, WorkspaceMeter,
                              component_sizes, is_alternating)

OCTAGON = [(0, 0), (-1, 3), (0, 6), (3, 7), (6, 6), (7, 3), (6, 0), (3, -1)]


def test_is_alternating_examples():
    assert is_alternating(2, 5, 6)
    assert not is_alternating(4, 6, 6)
    assert is_alternating(1, 4, 6)
    # m = 8: vertices 2-3 are top, 5-8 bottom, 1 and 4 the endpoints
    assert is_alternating(3, 5, 8)
    assert not is_alternating(2, 3, 8)
    assert not is_alternating(5, 8, 8)
    assert is_alternating(4, 6, 8)
    assert is_alternating(7, 1, 8)


def test_separates_examples():
    assert separates(2, 5, 6)
    assert not separates(4, 6, 6)
    with pytest.raises(ValueError):
        separates(1, 4, 6)


def test_separates_equals_alternating_exhaustive():
    # every ordered pair, boundary edges and endpoints included: a pair at
    # vertex 1 or the midpoint is alternating, any other pair is alternating
    # iff it separates the two
    for m in range(3, 41):
        mid = m // 2
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                expect = i in (1, mid) or j in (1, mid) or separates(i, j, m)
                assert is_alternating(i, j, m) == expect, (i, j, m)


def test_component_sizes_examples():
    assert component_sizes(2, 5, 6) == (4, 4)
    assert component_sizes(1, 3, 6) == (3, 5)
    assert component_sizes(1, 2, 6) == (2, 6)
    for i, j, m in [(2, 5, 6), (1, 3, 6), (3, 9, 12)]:
        a, b = component_sizes(i, j, m)
        assert a + b == m + 2


def test_meter_strict_ledger():
    m = WorkspaceMeter(100, MeterMode.STRICT)
    m.alloc(60)
    with pytest.raises(BudgetExceededError):
        m.alloc(50)
    assert m.current_words == 60          # failed alloc leaves ledger unchanged
    m.release(60)
    m.alloc(90)
    assert m.peak_words == 90
    assert not m.overage_flag


def test_meter_permissive_overage():
    m = WorkspaceMeter(100, MeterMode.PERMISSIVE)
    m.alloc(150)
    assert m.overage_flag
    assert m.current_words == 150


def test_meter_frames_and_levels():
    m = WorkspaceMeter(1000)
    with m.frame() as lvl:
        assert lvl == 1
        m.alloc(10)
        with m.frame() as lvl2:
            assert lvl2 == 2
            m.alloc(5)
            m.release(5)
        m.release(10)
    assert m.current_words == 0
    assert m.level_peaks[1] >= 10
    assert m.level_peaks[2] >= 5
    # an exception drops what its level still holds and propagates unchanged
    with pytest.raises(RuntimeError, match="first fault"):
        with m.frame():
            m.alloc(10)
            with m.frame():
                m.alloc(5)
                raise RuntimeError("first fault")
    assert m.current_words == 0 and m.level == 0
    strict = WorkspaceMeter(20)
    with pytest.raises(BudgetExceededError):
        with strict.frame():
            strict.alloc(5)
            with strict.frame():
                pass
    assert strict.current_words == 0 and strict.level == 0
    # a normal exit still refuses a level that kept words
    with pytest.raises(InternalInvariantError, match="still charged"):
        with m.frame():
            m.alloc(3)


def test_meter_release_guard():
    m = WorkspaceMeter(10)
    with pytest.raises(InternalInvariantError):
        m.release(1)


def test_whole_view_roundtrip():
    poly = BasePolygon(OCTAGON)
    v = SubpolygonView.whole(poly)
    assert v.m == 8
    assert [v.point(i) for i in range(1, 9)] == OCTAGON
    assert [v.base_ref(i) for i in range(1, 9)] == list(range(1, 9))


def test_whole_view_rotated_start():
    poly = BasePolygon(OCTAGON)
    v = SubpolygonView.whole(poly, start=4)
    assert v.m == 8
    assert v.point(1) == OCTAGON[3]
    assert v.base_ref(1) == 4
    assert v.base_ref(8) == 3


def test_nested_views_oracle_comparison():
    # vertex(i) of a nested view must match an independently materialized copy
    from polyws.oracle import generate
    rng = random.Random(3)
    for seed in range(8):
        poly = generate("random", 30, seed)
        view = SubpolygonView.whole(poly)
        pts = [view.point(i) for i in range(1, view.m + 1)]
        for _ in range(3):  # three levels of nesting
            m = view.m
            if m < 6:
                break
            i = rng.randrange(1, m + 1)
            j = 1 + (i - 1 + rng.randrange(2, m - 1)) % m
            if (j - i) % m in (0, 1, m - 1):
                continue
            lo, hi = min(i, j), max(i, j)
            child = view.subview([("range", lo, hi)])
            manual = pts[lo - 1:hi]
            assert [child.point(i)
                    for i in range(1, child.m + 1)] == manual
            assert child.descriptor_words <= view.descriptor_words + 8
            view, pts = child, manual


def test_view_with_cut_vertices():
    poly = BasePolygon(OCTAGON)
    whole = SubpolygonView.whole(poly)
    cut = CutVertex(None, point=(2, 2), virtual=True)
    v = whole.subview([("range", 1, 4), ("cut", cut)])
    assert v.m == 5
    assert v.point(5) == (2, 2)
    assert v.base_ref(5) is None
    assert v.is_virtual(5)
    assert not v.is_virtual(2)
    assert v.all_int


def test_view_rational_cut_flags_nonint():
    from fractions import Fraction
    poly = BasePolygon(OCTAGON)
    whole = SubpolygonView.whole(poly)
    cut = CutVertex(None, point=(Fraction(1, 2), Fraction(3, 2)), virtual=True)
    v = whole.subview([("range", 1, 4), ("cut", cut)])
    assert not v.all_int
