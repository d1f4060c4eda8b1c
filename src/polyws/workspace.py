"""The bounded-workspace model: read-only polygon accessors, composable
subpolygon views with O(1) indexed access, the top/bottom alternation test,
and the word-counting budget meter.

Conventions used throughout the package:

  * vertices are 1-based and clockwise; edge k joins local vertices k and k+1;
  * every view is built "start first": local vertex 1 is the designated start
    of whatever walk runs on it, and the midpoint target is local floor(m/2);
  * the meter counts abstract words of *stored* state (buffers, descriptors,
    cursors, pending records).  Read-only accesses to the base polygon are
    free, as are transient scan temporaries that die before an operation
    returns.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_right
from contextlib import contextmanager
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import geom
from .errors import (BudgetExceededError, InternalInvariantError,
                     PolygonInputError, UsageError)

FRAME_WORDS = 8       # implicit cost of one live recursion frame
BUDGET_L = 64         # L: budget_words = L * s


def is_alternating(i: int, j: int, m: int) -> bool:
    """True iff {i, j} joins a top vertex (before the midpoint floor(m/2))
    and a bottom vertex (after it), or touches vertex 1 or the midpoint."""
    mid = m // 2
    if i in (1, mid) or j in (1, mid):
        return True
    return (i < mid) != (j < mid)


def component_sizes(i: int, j: int, m: int) -> Tuple[int, int]:
    """Vertex counts of the two closed components of the boundary split at a
    diagonal (i, j); the endpoints belong to both, so the counts sum to m+2."""
    d = (j - i) % m
    return d + 1, m - d + 1


class MeterMode(enum.Enum):
    STRICT = "strict"
    PERMISSIVE = "permissive"


class RunStats:
    """Instrumentation counters for one run (not charged to the meter)."""

    __slots__ = ("links", "rounds", "scans", "far_calls", "far_scan_max",
                 "depth", "pieces")

    def __init__(self):
        self.links = 0          # geodesic vertices pulled from cursors
        self.rounds = 0         # cone-narrowing steps: ray shots, plus one
                                # per link that ends on an empty cone
        self.scans = 0          # cone candidate scans across all links
        self.far_calls = 0      # alternating-diagonal searches
        self.far_scan_max = 0   # worst boundary-scan count in one search
        self.depth = 0          # deepest recursion level reached
        self.pieces = 0         # recursive subproblems created


class WorkspaceMeter:
    """Word-granularity allocation ledger with per-level peak tracking.

    Strict mode refuses allocations that would exceed the budget and leaves
    the ledger untouched; permissive mode lets them through and raises the
    overage flag.
    """

    def __init__(self, budget_words: int, mode: MeterMode = MeterMode.STRICT):
        if budget_words < 0:
            raise PolygonInputError("budget must be non-negative")
        self.budget_words = budget_words
        self.mode = mode
        self.current_words = 0
        self.peak_words = 0
        self.overage_flag = False
        self._level = 0
        self.level_current: List[int] = [0]
        self.level_peaks: List[int] = [0]

    @property
    def level(self) -> int:
        return self._level

    def alloc(self, words: int, level: Optional[int] = None) -> None:
        if words < 0:
            raise PolygonInputError("cannot allocate a negative word count")
        if self.mode is MeterMode.STRICT \
                and self.current_words + words > self.budget_words:
            raise BudgetExceededError(
                words, self.budget_words - self.current_words, self._level)
        lvl = self._level if level is None else level
        self.current_words += words
        if self.current_words > self.budget_words:
            self.overage_flag = True
        if self.current_words > self.peak_words:
            self.peak_words = self.current_words
        self.level_current[lvl] += words
        if self.level_current[lvl] > self.level_peaks[lvl]:
            self.level_peaks[lvl] = self.level_current[lvl]

    def release(self, words: int, level: Optional[int] = None) -> None:
        if words < 0:
            raise PolygonInputError("cannot release a negative word count")
        if words > self.current_words:
            raise InternalInvariantError("meter release exceeds current words")
        lvl = self._level if level is None else level
        self.current_words -= words
        self.level_current[lvl] -= words

    @contextmanager
    def scoped(self, words: int, level: Optional[int] = None):
        lvl = self._level if level is None else level
        self.alloc(words, lvl)
        try:
            yield
        finally:
            self.release(words, lvl)

    @contextmanager
    def frame(self):
        """One recursion level.  A normal exit checks that the level
        released everything it charged; an exception drops whatever the
        level still holds and propagates unchanged (also a strict budget
        refusing the frame's own words)."""
        self._level += 1
        if len(self.level_current) <= self._level:
            self.level_current.append(0)
            self.level_peaks.append(0)
        try:
            self.alloc(FRAME_WORDS)
            yield self._level
        except BaseException:
            self.current_words -= self.level_current[self._level]
            self.level_current[self._level] = 0
            self._level -= 1
            raise
        self.release(FRAME_WORDS)
        if self.level_current[self._level] != 0:
            raise InternalInvariantError(
                f"level {self._level} exits with "
                f"{self.level_current[self._level]} words still charged")
        self._level -= 1


def null_meter() -> WorkspaceMeter:
    """An effectively unbounded permissive meter (oracles, tests, defaults)."""
    return WorkspaceMeter(1 << 60, MeterMode.PERMISSIVE)


class BasePolygon:
    """Read-only, constant-time vertex access to a simple polygon, clockwise.

    Doubles as the canonical coordinate store: scalar code reads python ints
    via vertex(); bulk scans slice the int64 arrays.
    """

    def __init__(self, points: Sequence[Tuple[int, int]]):
        pts = [(int(x), int(y)) for x, y in points]
        if len(pts) < 3:
            raise PolygonInputError("a polygon needs at least 3 vertices")
        for x, y in pts:
            geom.check_coord(x)
            geom.check_coord(y)
        self._pts = tuple(pts)
        self.n = len(pts)
        self.xs = np.array([p[0] for p in pts], dtype=np.int64)
        self.ys = np.array([p[1] for p in pts], dtype=np.int64)
        # views hand out slices of these arrays to bulk scans
        self.xs.flags.writeable = False
        self.ys.flags.writeable = False

    @classmethod
    def clockwise(cls, points: Sequence[Tuple[int, int]]) -> "BasePolygon":
        """The polygon on this ring, reversed after its first vertex when
        the ring runs counterclockwise."""
        pts = list(points)
        if _signed_area2(pts) > 0:
            pts = [pts[0]] + pts[:0:-1]
        return cls(pts)

    def vertex(self, i: int) -> Tuple[int, int]:
        if not 1 <= i <= self.n:
            raise PolygonInputError(f"vertex index {i} out of range")
        return self._pts[i - 1]

    def points(self) -> Tuple[Tuple[int, int], ...]:
        return self._pts


def _signed_area2(pts) -> int:
    """Twice the signed area of the ring (shoelace): negative when it runs
    clockwise."""
    s = 0
    n = len(pts)
    for k in range(n):
        x1, y1 = pts[k]
        x2, y2 = pts[(k + 1) % n]
        s += x1 * y2 - x2 * y1
    return s


class CutVertex:
    """An explicitly stored view vertex: an original vertex (by base index) or
    a derived/free exact point that exists only inside the recursion."""

    __slots__ = ("base", "point", "virtual")

    def __init__(self, base: Optional[int], point=None, virtual: bool = False):
        self.base = base          # 1-based base index, or None
        self.point = point        # exact (x, y) when base is None
        self.virtual = virtual    # True: never emitted to any sink

    def __repr__(self):
        if self.base is not None:
            return f"CutVertex(base={self.base})"
        return f"CutVertex(point={self.point}, virtual={self.virtual})"


# view descriptor items
_ARC = 0   # (ARC, start_base_1based, length)
_CUT = 1   # (CUT, CutVertex)


class SubpolygonView:
    """A window over a base polygon: ordered boundary items, each a contiguous
    base-index arc or a single stored cut vertex.  Local indices 1..m follow
    the boundary in clockwise order starting at the designated start vertex;
    lookup is O(1) through a prefix table of one entry per item.
    """

    __slots__ = ("base", "items", "prefix", "m", "all_int", "rational_slots")

    def __init__(self, base: BasePolygon, items):
        self.base = base
        norm = []
        for it in items:
            if it[0] == _ARC:
                _, start, length = it
                if length <= 0:
                    continue
                if norm and norm[-1][0] == _ARC:
                    ps, pl = norm[-1][1], norm[-1][2]
                    if (ps - 1 + pl) % base.n + 1 == start and pl + length <= base.n:
                        norm[-1] = (_ARC, ps, pl + length)
                        continue
                norm.append((_ARC, start, length))
            else:
                norm.append(it)
        self.items = tuple(norm)
        prefix = [0]
        # array slots (local index - 1) of the vertices with a coordinate
        # whose denominator is not 1, which the int64 candidate pick and ray
        # scans mask and settle exactly
        rational = []
        for it in self.items:
            if it[0] == _ARC:
                prefix.append(prefix[-1] + it[2])
            else:
                cv = it[1]
                if cv.base is None and (cv.point[0].denominator != 1
                                        or cv.point[1].denominator != 1):
                    rational.append(prefix[-1])
                prefix.append(prefix[-1] + 1)
        self.prefix = tuple(prefix)
        self.m = prefix[-1]
        self.all_int = not rational
        self.rational_slots = tuple(rational)
        if self.m < 3:
            raise PolygonInputError(f"view with {self.m} vertices is degenerate")

    @classmethod
    def whole(cls, base: BasePolygon, start: int = 1) -> "SubpolygonView":
        n = base.n
        if start == 1:
            return cls(base, [(_ARC, 1, n)])
        return cls(base, [(_ARC, start, n - start + 1), (_ARC, 1, start - 1)])

    # -- lookup -------------------------------------------------------------

    def _locate(self, i: int) -> Tuple[int, int]:
        if not 1 <= i <= self.m:
            raise PolygonInputError(f"local index {i} out of range (m={self.m})")
        slot = bisect_right(self.prefix, i - 1) - 1
        return slot, i - 1 - self.prefix[slot]

    def point(self, i: int):
        slot, off = self._locate(i)
        it = self.items[slot]
        if it[0] == _ARC:
            b = (it[1] - 1 + off) % self.base.n + 1
            return self.base.vertex(b)
        cv = it[1]
        if cv.base is not None:
            return self.base.vertex(cv.base)
        return cv.point

    def base_ref(self, i: int) -> Optional[int]:
        slot, off = self._locate(i)
        it = self.items[slot]
        if it[0] == _ARC:
            return (it[1] - 1 + off) % self.base.n + 1
        return it[1].base

    def local_of_base(self, ref: int) -> int:
        """Local index of base vertex `ref`, through the arc descriptor."""
        n = self.base.n
        pos = 0
        for it in self.items:
            if it[0] == _ARC:
                _, start, length = it
                offset = (ref - start) % n
                if offset < length:
                    return pos + offset + 1
                pos += length
            else:
                if it[1].base == ref:
                    return pos + 1
                pos += 1
        raise InternalInvariantError(f"base vertex {ref} not on the view")

    def is_virtual(self, i: int) -> bool:
        slot, _ = self._locate(i)
        it = self.items[slot]
        return it[0] == _CUT and it[1].virtual

    def is_cut(self, i: int) -> bool:
        """True for explicitly stored cut vertices (shared with a neighboring
        piece or created by a split); chain vertices return False."""
        slot, _ = self._locate(i)
        return self.items[slot][0] == _CUT

    @property
    def descriptor_words(self) -> int:
        """Stored size of this descriptor: 2 words per arc (start, length),
        2 per cut vertex, 1 per prefix entry, plus a constant."""
        arcs = sum(1 for it in self.items if it[0] == _ARC)
        cuts = len(self.items) - arcs
        return 2 * arcs + 2 * cuts + len(self.prefix) + 4

    def scan_points(self):
        """Transient ring of exact points for one O(m) scan (index 0 holds
        local vertex 1), built item by item from slices of the base tuple;
        a view made of one unwrapped arc aliases the base tuple."""
        base = self.base._pts
        n = self.base.n
        parts = []
        for it in self.items:
            if it[0] == _ARC:
                _, start, length = it
                s0 = start - 1
                end = s0 + length
                if end <= n:
                    parts.append(base[s0:end])
                else:
                    parts.append(base[s0:])
                    parts.append(base[:end - n])
            else:
                cv = it[1]
                parts.append((base[cv.base - 1] if cv.base is not None
                              else cv.point,))
        if len(parts) == 1:
            return parts[0]
        return tuple(chain.from_iterable(parts))

    def coord_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(xs, ys) int64 arrays, index 0 holding local vertex 1, for one
        scan.  A view made of one unwrapped arc returns read-only slices of
        the base arrays; any other view builds fresh arrays.  A view may
        hold at most two non-integer vertices, as an SPT split makes at most
        two (its lo and hi cuts); their slots (rational_slots) are masked:
        they hold the floors of the vertices' coordinates, which keep the
        int64 arithmetic in range, and a scan settles those slots exactly
        itself."""
        if len(self.rational_slots) > 2:
            raise InternalInvariantError(
                "coord_arrays on a view with more than two rational vertices")
        items = self.items
        n = self.base.n
        bxs = self.base.xs
        bys = self.base.ys
        if len(items) == 1:
            _, start, length = items[0]
            s0 = start - 1
            if s0 + length <= n:
                return bxs[s0:s0 + length], bys[s0:s0 + length]
        xs = np.empty(self.m, dtype=np.int64)
        ys = np.empty(self.m, dtype=np.int64)
        pos = 0
        for it in items:
            if it[0] == _ARC:
                _, start, length = it
                s0 = start - 1
                if s0 + length <= n:
                    xs[pos:pos + length] = bxs[s0:s0 + length]
                    ys[pos:pos + length] = bys[s0:s0 + length]
                else:
                    head = n - s0
                    xs[pos:pos + head] = bxs[s0:]
                    ys[pos:pos + head] = bys[s0:]
                    xs[pos + head:pos + length] = bxs[:length - head]
                    ys[pos + head:pos + length] = bys[:length - head]
                pos += length
            else:
                cv = it[1]
                if cv.base is not None:
                    x, y = self.base.vertex(cv.base)
                else:
                    x, y = math.floor(cv.point[0]), math.floor(cv.point[1])
                xs[pos] = x
                ys[pos] = y
                pos += 1
        return xs, ys

    # -- slicing ------------------------------------------------------------

    def slice_positions(self, lo: int, hi: int) -> List[tuple]:
        """Descriptor items for the closed local range lo..hi (cyclic)."""
        count = (hi - lo) % self.m + 1
        out = []
        i = lo
        remaining = count
        while remaining > 0:
            slot, off = self._locate(i)
            it = self.items[slot]
            if it[0] == _ARC:
                take = min(remaining, it[2] - off)
                b = (it[1] - 1 + off) % self.base.n + 1
                out.append((_ARC, b, take))
            else:
                take = 1
                out.append(it)
            remaining -= take
            i = (i - 1 + take) % self.m + 1
        return out

    def subview(self, segs) -> "SubpolygonView":
        """Build a child view from ordered boundary segments.

        Each segment is ('range', lo, hi) for the closed local interval
        lo..hi, ('pos', i) for a single local vertex, ('cutpos', i) for a
        local vertex stored as an explicit cut vertex, or ('cut', CutVertex)
        for a new explicit vertex.  The child references the base polygon
        directly, so nesting never deepens indirection.
        """
        items = []
        for seg in segs:
            if seg[0] == "range":
                items.extend(self.slice_positions(seg[1], seg[2]))
            elif seg[0] == "pos":
                items.extend(self.slice_positions(seg[1], seg[1]))
            elif seg[0] == "cutpos":
                got = self.slice_positions(seg[1], seg[1])[0]
                if got[0] == _CUT:
                    items.append(got)
                else:
                    base_idx = got[1]
                    items.append((_CUT, CutVertex(base_idx)))
            elif seg[0] == "cut":
                items.append((_CUT, seg[1]))
            else:
                raise UsageError(f"unknown segment kind {seg[0]!r}")
        return SubpolygonView(self.base, items)
