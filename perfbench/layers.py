"""Traced run: spans around the public entry points of each polyws layer.

Every timed function is replaced in each namespace its callers bind it from
(spt imports first_link and ear_clip by name, partition imports triangulate by
name; SubpolygonView methods are patched on the class).  Only per-scan entry
points are wrapped, never per-vertex accessors such as SubpolygonView.point.

A span is (name, start, end, parent, job, verts, rounds); spans stay in memory
and are written as JSONL at the end.  Self time is a span's duration minus the
durations of its direct children.  The int64/scalar split of a scan is read
from view.all_int and view.m >= geom.BULK_MIN_M at call time.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

from polyws import cli, geodesic, geom, oracle
from polyws.workspace import SubpolygonView

import workloads

# the package re-exports functions under these module names, so fetch the
# modules themselves
partition = importlib.import_module("polyws.partition")
spt = importlib.import_module("polyws.spt")
triangulate = importlib.import_module("polyws.triangulate")

GEOM_SCANS = ("ray_scan_light", "ray_shoot", "is_visible", "point_in_closed",
              "max_angle_reflex_in_triangle")
LEVELS = 6   # workspace.level_peak.0 .. 5 (the walk reaches depth 3 + frame)


def _path(view, point=None) -> str:
    bulk = view.all_int and view.m >= geom.BULK_MIN_M
    if point is not None:
        bulk = bulk and isinstance(point[0], int) and isinstance(point[1], int)
    return "int64" if bulk else "scalar"


class Tracer:
    """install() swaps the wrappers in, uninstall() restores the originals;
    `job` names the job that new spans belong to."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.job: Optional[str] = None
        self.diags_streamed = 0
        self._undo: List[tuple] = []

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, fn, name, label=None, verts=None, rounds=False):
        """Span-recording replacement for fn.  `label(args)` refines the span
        name (the scan path), `verts(args)` gives the vertices scanned, and
        `rounds` records the cone rounds a first_link call added to the
        RunStats it was handed."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kw):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            stats = (args[4] if len(args) > 4 else kw.get("stats")) \
                if rounds else None
            r0 = stats.rounds if stats is not None else 0
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (
                    name if label is None else f"{name}.{label(args)}",
                    t0, t1, parent, self.job,
                    verts(args) if verts is not None else 0,
                    stats.rounds - r0 if stats is not None else 0)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        view_m = lambda a: a[0].m  # noqa: E731
        for fname in GEOM_SCANS:
            lab = (lambda a: _path(a[0], a[1])) if fname == "point_in_closed" \
                else (lambda a: _path(a[0]))
            self._patch(geom, fname, self.wrap(
                getattr(geom, fname), f"geom.{fname}", lab, view_m))
        self._patch(geom, "point_sees_vertex", self.wrap(
            geom.point_sees_vertex, "geom.point_sees_vertex",
            lambda a: "scalar", view_m))
        # the cursor calls geodesic.first_link; spt binds its own name for the
        # constant-workspace base case, which does not count as a cursor link
        fl = geodesic.first_link
        self._patch(geodesic, "first_link", self.wrap(
            fl, "geodesic.first_link", lambda a: "cursor", view_m, True))
        self._patch(spt, "first_link", self.wrap(
            fl, "geodesic.first_link", lambda a: "base", view_m, True))
        for meth in ("scan_points", "coord_arrays", "subview"):
            self._patch(SubpolygonView, meth, self.wrap(
                getattr(SubpolygonView, meth), f"workspace.{meth}",
                verts=view_m))
        ec = triangulate.ear_clip
        for owner in (triangulate, spt):
            self._patch(owner, "ear_clip", self.wrap(
                ec, "triangulate.ear_clip", verts=view_m))
        self._patch(triangulate, "find_alternating_diagonal", self.wrap(
            triangulate.find_alternating_diagonal, "triangulate.far_case"))
        self._patch(spt, "funnel_parents", self.wrap(
            spt.funnel_parents, "spt.funnel", verts=view_m))
        self._patch(spt, "spt_constant_workspace", self.wrap(
            spt.spt_constant_workspace, "spt.const_ws", verts=view_m))
        self._patch(partition, "triangulate", self.wrap(
            partition.triangulate, "partition.cut_search"))
        emit = partition.BalancedCutFilter.emit_diagonal

        def counted_emit(filt, a, b):
            self.diags_streamed += 1
            return emit(filt, a, b)
        self._patch(partition.BalancedCutFilter, "emit_diagonal", counted_emit)
        self._patch(cli, "load_polygon", self.wrap(
            cli.load_polygon, "cli.load_polygon"))
        self._patch(oracle, "check_simple", self.wrap(
            oracle.check_simple, "oracle.check_simple"))
        # the benchmark's own API bindings give each job its root span
        for attr, name in (("triangulate_polygon", "job.tri"),
                           ("spt", "job.spt"), ("partition", "job.part")):
            self._patch(workloads, attr, self.wrap(getattr(workloads, attr),
                                                   name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, job, verts, rounds in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job,
                                     "verts": verts, "rounds": rounds}))
                fh.write("\n")

    def totals(self):
        """Per span name: inclusive seconds, self seconds, calls, vertices,
        rounds; per job: counts used to reconcile with RunStats."""
        child = defaultdict(float)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "verts": 0,
                     "rounds": 0, "round_verts": 0})
        per_job: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        for idx, (name, t0, t1, parent, job, verts, rounds) in \
                enumerate(self.spans):
            a = agg[name]
            a["s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[idx]
            a["calls"] += 1
            a["verts"] += verts
            a["rounds"] += rounds
            a["round_verts"] += rounds * verts
            pj = per_job[job]
            if name.startswith("geodesic.first_link"):
                pj["rounds"] += rounds
                if name.endswith(".cursor"):
                    pj["links"] += 1
            elif name == "triangulate.far_case":
                pj["far_calls"] += 1
        return agg, per_job


def reconcile(per_job, results) -> List[str]:
    """Wrapper totals against each job's RunStats; a difference means some
    caller reached a timed function through a binding the tracer missed."""
    errs = []
    for name, (job, res) in results.items():
        got = per_job.get(name, {})
        checks = [("rounds", res.stats.rounds), ("links", res.stats.links)]
        if job.op != "spt":
            # the SPT far case extends an edge inside spt's private walk
            checks.append(("far_calls", res.stats.far_calls))
        for key, want in checks:
            if got.get(key, 0) != want:
                errs.append(f"{name}: traced {key} {got.get(key, 0)} "
                            f"!= RunStats {want}")
    return errs


def layer_metrics(tracer: Tracer, agg, results, traced_wall: float,
                  untraced_wall: float) -> Dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit); `agg` is the first
    half of tracer.totals()."""
    out: Dict[str, tuple] = {}

    def group(prefix):
        keys = [k for k in agg if k == prefix or k.startswith(prefix + ".")]
        tot = {"s": 0.0, "self_s": 0.0, "calls": 0, "verts": 0, "rounds": 0,
               "round_verts": 0}
        for k in keys:
            for f in tot:
                tot[f] += agg[k][f]
        return tot

    def ns_per_v(sec, verts):
        return sec * 1e9 / verts if verts else 0.0

    for fname in GEOM_SCANS + ("point_sees_vertex",):
        paths = ("scalar",) if fname == "point_sees_vertex" \
            else ("int64", "scalar")
        for path in paths:
            a = group(f"geom.{fname}.{path}")
            base = f"geom.{fname}.{path}"
            out[f"{base}.s"] = (a["s"], "s")
            out[f"{base}.calls"] = (a["calls"], "count")
            out[f"{base}.ns_per_v"] = (ns_per_v(a["s"], a["verts"]),
                                       "ns/vertex")

    fl = group("geodesic.first_link")
    out["geodesic.first_link.s"] = (fl["s"], "s")
    out["geodesic.first_link.calls"] = (fl["calls"], "count")
    out["geodesic.rounds"] = (fl["rounds"], "count")
    out["geodesic.rounds_per_link"] = (
        fl["rounds"] / fl["calls"] if fl["calls"] else 0.0, "rounds/link")
    out["geodesic.ms_per_link"] = (
        fl["s"] * 1e3 / fl["calls"] if fl["calls"] else 0.0, "ms/link")
    out["geodesic.cand_scan.self_s"] = (fl["self_s"], "s")
    out["geodesic.cand_scan.ns_per_v"] = (
        ns_per_v(fl["self_s"], fl["round_verts"]), "ns/vertex")

    for meth in ("scan_points", "coord_arrays"):
        a = group(f"workspace.{meth}")
        out[f"workspace.{meth}.s"] = (a["s"], "s")
        out[f"workspace.{meth}.calls"] = (a["calls"], "count")
        out[f"workspace.{meth}.verts"] = (a["verts"], "vertices")
    a = group("workspace.subview")
    out["workspace.subview.s"] = (a["s"], "s")
    out["workspace.subview.calls"] = (a["calls"], "count")
    slack = None
    for k in range(LEVELS):
        peak = max((r.level_peaks[k] for _j, r in results.values()
                    if k < len(r.level_peaks)), default=0)
        out[f"workspace.level_peak.{k}"] = (peak, "words")
    for job, r in results.values():
        if job.op == "spt":
            continue  # the envelope bounds the triangulator's levels only
        for k, peak in enumerate(r.level_peaks):
            room = r.budget_words * 0.9 ** k + 64 - peak
            slack = room if slack is None else min(slack, room)
    out["workspace.envelope_slack_min"] = (slack, "words")

    tri = [r for j, r in results.values() if j.op == "tri"]
    sp = [r for j, r in results.values() if j.op == "spt"]
    pa = [r for j, r in results.values() if j.op == "part"]
    a = group("triangulate.ear_clip")
    out["triangulate.ear_clip.s"] = (a["s"], "s")
    out["triangulate.ear_clip.calls"] = (a["calls"], "count")
    out["triangulate.ear_clip.verts"] = (a["verts"], "vertices")
    a = group("triangulate.far_case")
    out["triangulate.far_case.s"] = (a["s"], "s")
    out["triangulate.far_case.calls"] = (a["calls"], "count")
    out["triangulate.walk.self_s"] = (
        group("job.tri")["self_s"] + group("partition.cut_search")["self_s"],
        "s")
    out["triangulate.pieces"] = (sum(r.stats.pieces for r in tri), "count")
    out["triangulate.depth"] = (max((r.stats.depth for r in tri), default=0),
                                "levels")
    out["triangulate.adjacency.pending_peak"] = (
        max((r.pending_peak for r in tri), default=0), "entries")

    for key, name in (("funnel", "spt.funnel"), ("const_ws", "spt.const_ws")):
        a = group(name)
        out[f"spt.{key}.s"] = (a["s"], "s")
        out[f"spt.{key}.calls"] = (a["calls"], "count")
        out[f"spt.{key}.verts"] = (a["verts"], "vertices")
    out["spt.walk.self_s"] = (group("job.spt")["self_s"], "s")
    out["spt.pieces"] = (sum(r.stats.pieces for r in sp), "count")

    cs = group("partition.cut_search")
    out["partition.cut_search.s"] = (cs["s"], "s")
    out["partition.cut_search.calls"] = (cs["calls"], "count")
    out["partition.rounds"] = (sum(r.rounds for r in pa), "count")
    out["partition.diags_per_cut"] = (
        tracer.diags_streamed / cs["calls"] if cs["calls"] else 0.0,
        "diagonals/cut")
    out["partition.self_s"] = (group("job.part")["self_s"], "s")

    a = group("cli.load_polygon")
    out["cli.load_polygon.s"] = (a["s"], "s")
    out["cli.load_polygon.calls"] = (a["calls"], "count")
    out["oracle.check_simple.s"] = (group("oracle.check_simple")["s"], "s")

    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
