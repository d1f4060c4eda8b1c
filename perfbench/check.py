"""Correctness gate: canonical output digests and what backs them.

A digest is recorded once per (job, input polygon) in digests.json, after the
output was backed by an independent check:

  * triangulation: oracle.validate_triangulation (plus neighbor symmetry of
    the triangle records when the job emits adjacency);
  * partition: oracle.validate_partition;
  * SPT: a geodesic certificate (below), agreement with the tree of the other
    SPT path (the s = n funnel tree for a budgeted job, the budgeted walk tree
    at the CLI budget floor for an s = n job), and, when recording small
    inputs, oracle.validate_spt.  ref_spt is roughly cubic, so the oracle only
    finishes on small polygons.

A run compares each output's digest with the recorded one (or, without a
record, backs the first pass in-run and compares later passes with it).  It
re-runs the checks only on a mismatch: accepted means outputs_changed,
rejected means the job failed.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

from polyws import geom, oracle
from polyws.spt import spt
from polyws.triangulate import required_budget
from polyws.workspace import SubpolygonView

DIGESTS = Path(__file__).with_name("digests.json")
ORACLE_SPT_MAX_N = 400


def canonical_text(output: dict) -> str:
    """The output as the CLI writes it (edges/tree/partition text formats)."""
    lines = []
    if "records" in output:
        lines += [f"T {tid} {i} {j} {k}  {a} {b} {c}"
                  for tid, (i, j, k), (a, b, c) in output["records"]]
    if "diagonals" in output:
        lines += [f"{a} {b}" for a, b in output["diagonals"]]
    if "edges" in output:
        lines += [f"{a} {b}" for a, b in output["edges"]]
    if "pieces" in output:
        lines += ["P " + " ".join(map(str, ring)) for ring in output["pieces"]]
    return "\n".join(lines) + "\n"


def digest(output: dict) -> str:
    return hashlib.sha256(canonical_text(output).encode()).hexdigest()


def input_digest(poly) -> str:
    text = "\n".join(f"{x} {y}" for x, y in poly.points())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_key(job, poly) -> str:
    root = "" if job.root is None else f" root={job.root}"
    mode = "" if job.mode is None else f" mode={job.mode.value}"
    return f"{job.op} s={job.s}{root}{mode} input={input_digest(poly)}"


def load_records(path: Path = DIGESTS) -> Dict[str, dict]:
    if not path.exists():
        return {}
    with open(path) as fh:
        return json.load(fh)


def save_records(records: Dict[str, dict], path: Path = DIGESTS) -> None:
    with open(path, "w") as fh:
        json.dump(dict(sorted(records.items())), fh, indent=1)
        fh.write("\n")


class Gate:
    """Digest comparison per job; the backing checks run only when a digest
    is new or differs from the one it should equal."""

    def __init__(self, records):
        self.records = records
        self.first = {}           # job name -> digest accepted this run
        self.attempted = 0
        self.failed = 0
        self.outputs_changed = 0

    def fail(self, job, why):
        self.failed += 1
        print(f"FAIL {job.name}: {why}", file=sys.stderr)

    def check(self, job, poly, output) -> None:
        d = digest(output)
        key = record_key(job, poly)
        ref = self.first.get(job.name) \
            or self.records.get(key, {}).get("digest")
        if d == ref:
            return
        errs, how = back(job, poly, output)
        if errs:
            self.fail(job, "; ".join(errs[:3]))
            return
        if ref is not None:
            self.outputs_changed += 1
            print(f"outputs_changed {job.name}: accepted by {how}",
                  file=sys.stderr)
        self.first[job.name] = d


# ---------------------------------------------------------------------------
# backing checks: each returns a list of errors (empty = accepted) and names
# what it ran

def back(job, poly, output: dict, thorough: bool = False):
    if job.op == "tri":
        errs = list(oracle.validate_triangulation(
            poly, output["diagonals"]).errors)
        if "records" in output:
            errs += adjacency_errors(poly.n, output["records"])
        return errs, "oracle"
    if job.op == "part":
        rep = oracle.validate_partition(poly, output["diagonals"],
                                        output["pieces"], job.s)
        return list(rep.errors), "oracle"
    errs = spt_certificate(poly, job.root, output["edges"])
    backed = ["certificate"]
    cheap = job.s < poly.n   # the other path is the s = n funnel tree
    if cheap or thorough:
        other_s = poly.n if cheap else required_budget(poly.n)
        kw = {} if job.mode is None else {"mode": job.mode}
        try:
            other = spt(poly, job.root, other_s, **kw)[0].edges
        except Exception as exc:  # the second path's own failure
            errs.append(f"s={other_s} SPT raised {type(exc).__name__}: {exc}")
        else:
            if set(other) != set(output["edges"]):
                errs.append(f"SPT differs from the s={other_s} tree")
        backed.append("two-path")
    if thorough and poly.n <= ORACLE_SPT_MAX_N:
        errs += oracle.validate_spt(poly, job.root, output["edges"]).errors
        backed.append("oracle")
    return errs, "+".join(backed)


def adjacency_errors(n: int, records) -> List[str]:
    """n-2 triangles whose neighbor references are mutual and whose boundary
    sides are polygon edges."""
    errs = []
    if len(records) != n - 2:
        errs.append(f"expected {n - 2} triangles, got {len(records)}")
    sides = {}
    for tid, corners, nbrs in records:
        for k in range(3):
            a, b = corners[k], corners[(k + 1) % 3]
            sides[(tid, min(a, b), max(a, b))] = nbrs[k]
    for (tid, a, b), nb in sides.items():
        if nb == 0:
            if (b - a) % n not in (1, n - 1):
                errs.append(f"triangle {tid}: side ({a},{b}) is no edge")
        elif sides.get((nb, a, b)) != tid:
            errs.append(f"triangle {tid}: neighbor {nb} across ({a},{b}) "
                        f"does not point back")
    return errs[:20]


def spt_certificate(poly, root, edges) -> List[str]:
    """Exact O(n*m) check that `edges` is the shortest-path tree of `root`.

    The edges must form a tree on every vertex, hanging from the root, with
    every edge an interior sightline and every path taut at each bend: the
    bend vertex is reflex and both of its boundary edges lie in the convex
    angle the path turns through.  A locally taut path in a simple polygon is
    the unique geodesic, so such a tree is the shortest-path tree.  A parent
    of 0 denotes a root that is not a vertex.
    """
    n = poly.n
    view = SubpolygonView.whole(poly)
    errs: List[str] = []
    parent: Dict[int, int] = {}
    for p, c in edges:
        if c in parent:
            errs.append(f"vertex {c} has two parents")
        parent[c] = p
    want = set(range(1, n + 1)) - ({root} if isinstance(root, int) else set())
    if set(parent) != want:
        errs.append("tree does not span the vertices exactly once")
        return errs
    root_v = root if isinstance(root, int) else 0
    root_pt = poly.vertex(root) if isinstance(root, int) else root

    def pt(v):
        return root_pt if v == root_v or v == 0 else poly.vertex(v)

    reached = {root_v}
    for c in parent:
        chain = set()
        v = c
        while v not in reached:
            chain.add(v)
            v = parent.get(v, -1)
            if v == -1 or v in chain:
                errs.append(f"vertex {c} does not reach the root")
                return errs
        reached |= chain
    for c, p in parent.items():
        if p == root_v and not isinstance(root, int):
            seen = geom.point_sees_vertex(view, root_pt, c)
        else:
            seen = geom.is_visible(view, p, c)
        if not seen:
            errs.append(f"tree edge ({p},{c}) is not a sightline")
        if p != root_v:
            g = parent[p]
            G, P, Q = pt(g), pt(p), pt(c)
            turn = geom.orient(P, G, Q)
            a = poly.vertex(1 + (p - 2) % n)
            b = poly.vertex(1 + p % n)
            if turn == geom.COLLINEAR or not geom.is_reflex(view, p) \
                    or not all(_in_cone(G, P, Q, X, turn) for X in (a, b)):
                errs.append(f"path to {c} is not taut at {p}")
        if len(errs) >= 20:
            break
    return errs


def _in_cone(G, P, Q, X, turn) -> bool:
    """X - P lies in the closed convex cone from G - P to Q - P; `turn` is
    orient(P, G, Q)."""
    return (geom.orient(P, G, X) * turn >= 0
            and geom.orient(P, X, Q) * turn >= 0)
